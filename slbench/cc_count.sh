#!/bin/sh
# Pass-through SLINGEN_CC wrapper: appends one line per compiler invocation
# (its arguments) to $SLBENCH_CC_LOG, then runs the system compiler. The
# traced slbench run installs it to count compiler invocations exactly,
# from outside the program.
printf '%s\n' "$*" >> "${SLBENCH_CC_LOG:?SLBENCH_CC_LOG is not set}"
exec cc "$@"
