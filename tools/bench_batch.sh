#!/bin/sh
# tools/bench_batch.sh - record the batch-strategy perf comparison.
#
# Runs bench/batch_strategies (loop vs fused on potrf {4,8,16} and
# trsyl {4,8}, counts {32,1024} plus the remainder-heavy {33,1025} that
# exercise the masked fused tail, plus threaded "-mt<k>" rows on multicore
# hosts) and writes BENCH_batch.json at the repo root so the perf
# trajectory has data across PRs. The CPU count lands in the JSON context.
#
#   bench_batch.sh [--smoke]
#
# --smoke trims the run to one size at two counts (a divisible one and a
# masked-tail one) with a short measurement
# window; check.sh uses it as a CI liveness probe. The underlying binary
# already skips cleanly (valid empty JSON) when no system C compiler or no
# vector ISA is available, so this script succeeds everywhere.
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
BUILD="${BUILD_DIR:-$ROOT/build}"
OUT="${BENCH_OUT:-$ROOT/BENCH_batch.json}"
BIN="$BUILD/bench/bench_batch_strategies"

EXTRA=""
if [ "${1:-}" = "--smoke" ]; then
  # benchmark 1.7 takes bare seconds for --benchmark_min_time. The filter
  # keeps one size at counts 32 (full blocks) and 33 (masked tail) but
  # every strategy variant -- including the threaded -mt rows on multicore
  # hosts, so the pool dispatch path gets CI coverage.
  EXTRA="--benchmark_filter=potrf/n=8/count=3[23]/ --benchmark_min_time=0.05"
fi

if [ ! -x "$BIN" ]; then
  echo "bench_batch.sh: $BIN not built (configure with" \
       "-DSLINGEN_BUILD_BENCH=ON); writing stub" >&2
  printf '{"benchmarks": [], "skipped": "binary not built"}\n' > "$OUT"
  exit 0
fi

# shellcheck disable=SC2086  # EXTRA is intentionally word-split
"$BIN" --benchmark_out="$OUT" --benchmark_out_format=json \
       --benchmark_counters_tabular=true $EXTRA
# When the binary skips (no compiler / no vector ISA) google-benchmark
# leaves a 0-byte output file; replace it with a valid stub so consumers
# (and check.sh's `test -s`) always see well-formed JSON.
if [ ! -s "$OUT" ]; then
  printf '{"benchmarks": [], "skipped": "no runnable strategy comparison on this host"}\n' > "$OUT"
fi
echo "bench_batch.sh: wrote $OUT"
