#!/usr/bin/env python3
"""Smoke test: every workload at toy sizes, untraced and traced.

    python3 slbench/smoke.py <path to the slbench binary>

Checks that each run prints every metric BENCHMARK.json names for its
mode, each with its unit, and that no operation failed. Registered with
ctest under the label `bench` (see CMakeLists.txt).
"""

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    binary = sys.argv[1]
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    errors = []
    with tempfile.TemporaryDirectory(dir=".") as tmp:
        for w in bench["workloads"]:
            for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
                run = subprocess.run(
                    [binary, "--workload", w["name"], "--seed", "1",
                     "--seconds", "1", "--trace", str(trace), "--smoke",
                     "--workdir", os.path.join(tmp, "work"),
                     "--outdir", os.path.join(tmp, "out")],
                    stdout=subprocess.PIPE, text=True)
                where = "%s --trace %d" % (w["name"], trace)
                if run.returncode != 0:
                    errors.append("%s: exit %d" % (where, run.returncode))
                    continue
                result = json.loads(run.stdout.splitlines()[-1])
                if result["failed"] or not result["correct"]:
                    errors.append("%s: %d failed" % (where, result["failed"]))
                for m in bench[kind]:
                    got = result["metrics"].get(m["name"])
                    if not got or got["unit"] != m["unit"]:
                        errors.append("%s: %s missing or not in %s" %
                                      (where, m["name"], m["unit"]))
                    elif "%s " % m["name"] not in run.stdout:
                        errors.append("%s: %s not printed" % (where, m["name"]))
    for e in errors:
        print("smoke:", e, file=sys.stderr)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
