#!/usr/bin/env python3
"""Run slbench over several seeds and summarize every metric.

    python3 slbench/ledger.py [--runs 10] [--first-seed 1]
        [--workloads paper,cold,batch,serve] [--traced] [--out FILE]

For each workload, runs `slbench/run.py` once per seed (seeds first-seed,
first-seed+1, ...) for BENCHMARK.json's run_seconds, untraced, and keeps
every printed `name value unit` line plus the command's wall time
(`wall_s`). --traced adds one traced run per workload. Prints, per
workload and metric, the median, the quartiles and the spread (quartile
distance over the median) -- the numbers the bounds in BENCHMARK.json are
checked against -- and with --out writes them, with the host, ISA and CPU
count, as JSON (slbench/results/baseline.json is one).
Run from the root of a checkout.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0"]
    start = time.monotonic()
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                         check=True).stdout.splitlines()
    wall = time.monotonic() - start
    result = json.loads(out[-1])
    values = {"wall_s": (wall, "s")}
    for line in out[:-1]:
        parts = line.split()
        if len(parts) == 3:
            try:
                values[parts[0]] = (float(parts[1]), parts[2])
            except ValueError:
                pass
    return result, values


def summarize(samples):
    """{metric: [(value, unit), ...]} -> {metric: summary}."""
    out = {}
    for name, vals in sorted(samples.items()):
        xs = [v for v, _ in vals]
        med = statistics.median(xs)
        q1, _, q3 = statistics.quantiles(xs, n=4) if len(xs) > 1 else \
            (xs[0], xs[0], xs[0])
        out[name] = {"unit": vals[0][1], "n": len(xs), "median": med,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "values": xs}
    return out


def cpuinfo(key):
    try:
        with open("/proc/cpuinfo") as f:
            line = next(l for l in f if l.startswith(key))
    except (OSError, StopIteration):
        return ""
    return line.split(":", 1)[1].strip()


def isa():
    flags = cpuinfo("flags").split()
    for name, flag in (("avx512", "avx512f"), ("avx", "avx2"),
                       ("sse2", "sse2")):
        if flag in flags:
            return name
    return "scalar"


def main():
    bench = json.load(open(os.path.join(HERE, "..", "BENCHMARK.json")))
    p = argparse.ArgumentParser()
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--workloads",
                   default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--traced", action="store_true")
    p.add_argument("--out")
    a = p.parse_args()

    seconds = bench["run_seconds"]
    ledger = {"host": cpuinfo("model name") or platform.machine(),
              "isa": isa(), "nproc": os.cpu_count(),
              "run_seconds": seconds, "runs": a.runs, "workloads": {}}
    for w in a.workloads.split(","):
        samples, failed = {}, 0
        for seed in range(a.first_seed, a.first_seed + a.runs):
            result, values = run_once(w, seed, seconds, False)
            failed += result["failed"]
            for name, v in values.items():
                samples.setdefault(name, []).append(v)
            print("%s seed %d: %s" % (w, seed, " ".join(
                "%s=%.6g" % (k, m["value"])
                for k, m in result["metrics"].items())), file=sys.stderr)
        entry = {"failed": failed, "metrics": summarize(samples)}
        if a.traced:
            result, values = run_once(w, a.first_seed, seconds, True)
            entry["traced"] = {"seed": a.first_seed,
                               "failed": result["failed"],
                               "metrics": {k: v for k, (v, _) in
                                           values.items()}}
        ledger["workloads"][w] = entry
        for name, m in entry["metrics"].items():
            print("%-8s %-42s median %-12.6g spread %5.1f%%" %
                  (w, name, m["median"], 100 * m["spread"]))
    if a.out:
        with open(a.out, "w") as f:
            json.dump(ledger, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
