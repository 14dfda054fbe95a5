#!/usr/bin/env python3
"""Build slbench from source and run one workload.

    python3 slbench/run.py --workload paper|cold|batch|serve --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout. The package is configured and built under
$CARGO_TARGET_DIR (default .bench_build) on first use; later runs rebuild
only what changed. Build output goes to stderr; stdout carries the
benchmark's `name value unit` lines and, last, its one-line JSON result.
A traced run also writes <workload>-seed<N>.selftime.txt next to its
Chrome trace: per span name, the time not covered by child spans.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))


def build(out_dir):
    build_dir = os.path.join(out_dir, "slbench")
    os.makedirs(out_dir, exist_ok=True)
    # Concurrent runs in one checkout must not build over each other.
    with open(os.path.join(out_dir, "slbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not any(os.path.exists(os.path.join(build_dir, f))
                   for f in ("Makefile", "build.ninja")):
            subprocess.run(["cmake", "-S", HERE, "-B", build_dir],
                           stdout=sys.stderr, check=True)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", build_dir, "--target", "slbench",
                        "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "slbench")


def self_times(trace_path):
    """Per span name: total duration minus the part its children cover."""
    with open(trace_path) as f:
        events = [e for e in json.load(f)["traceEvents"] if e.get("ph") == "X"]
    by_tid = defaultdict(list)
    for e in events:
        by_tid[e["tid"]].append(e)
    total, self_us, count = defaultdict(int), defaultdict(int), defaultdict(int)
    for spans in by_tid.values():
        # Parents first: earlier start, then longer duration.
        spans.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # enclosing spans: [end, name]
        for e in spans:
            while stack and e["ts"] >= stack[-1][0]:
                stack.pop()
            if stack:
                self_us[stack[-1][1]] -= e["dur"]
            total[e["name"]] += e["dur"]
            self_us[e["name"]] += e["dur"]
            count[e["name"]] += 1
            stack.append([e["ts"] + e["dur"], e["name"]])
    lines = ["%-32s %8s %14s %14s" % ("span", "count", "total_us", "self_us")]
    lines += ["%-32s %8d %14d %14d" % (n, count[n], total[n], self_us[n])
              for n in sorted(total, key=lambda n: -self_us[n])]
    return "\n".join(lines) + "\n"


def main():
    args = sys.argv[1:]
    parser = argparse.ArgumentParser(add_help=False)
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=float)
    parser.add_argument("--trace", type=float, default=0)
    opts, _ = parser.parse_known_args(args)
    out_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                              ".bench_build")
    try:
        binary = build(out_dir)
    except (OSError, subprocess.CalledProcessError) as err:
        print("slbench: build failed: %s" % err, file=sys.stderr)
        return 1
    work = os.path.join(out_dir, "slbench-work")
    trace_dir = os.path.join(out_dir, "slbench-out")
    # A relative work directory keeps the daemon's socket path short.
    proc = subprocess.Popen([binary] + args + ["--workdir",
                                               os.path.relpath(work),
                                               "--outdir", trace_dir],
                            stdout=subprocess.PIPE, text=True)
    stdout, _ = proc.communicate()
    # The binary removes its own directory; this covers a crash.
    shutil.rmtree(os.path.join(work, str(proc.pid)), ignore_errors=True)
    if proc.returncode == 0 and opts.trace:
        base = os.path.join(trace_dir, "%s-seed%d" % (opts.workload,
                                                      int(opts.seed)))
        with open(base + ".selftime.txt", "w") as f:
            f.write(self_times(base + ".trace.json"))
        print("slbench: wrote %s.selftime.txt" % base, file=sys.stderr)
    sys.stdout.write(stdout)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
