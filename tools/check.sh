#!/bin/sh
# tools/check.sh - the single CI entry point.
#
# Runs the tier-1 verify line (configure, build, ctest) followed by an slc
# smoke test over examples/ and an sld daemon round trip. Exits non-zero on
# the first failure.
#
# CHECK_SANITIZE=address (or thread/undefined) reruns everything in a
# sanitized build tree (build-<sanitizer>/ unless BUILD_DIR overrides).
# CHECK_SANITIZE=all runs the address, thread, and undefined legs in
# sequence (each in its own build-<sanitizer>/ tree; the sanitizers cannot
# be combined in one binary).
set -eu

ROOT=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
SANITIZE="${CHECK_SANITIZE:-}"
if [ "$SANITIZE" = "all" ]; then
  for LEG in address thread undefined; do
    echo "==== sanitizer leg: $LEG ===="
    CHECK_SANITIZE="$LEG" BUILD_DIR="" sh "$0"
  done
  echo "check.sh: all sanitizer legs green"
  exit 0
fi
if [ -n "$SANITIZE" ]; then
  BUILD="${BUILD_DIR:-$ROOT/build-$SANITIZE}"
else
  BUILD="${BUILD_DIR:-$ROOT/build}"
fi
JOBS=$(nproc 2>/dev/null || echo 4)

# The thread leg suppresses only the known TSan false positives around
# dlopen'd JIT kernels (see tools/tsan.supp for the rationale per entry).
if [ "$SANITIZE" = "thread" ]; then
  TSAN_OPTIONS="suppressions=$ROOT/tools/tsan.supp ${TSAN_OPTIONS:-}"
  export TSAN_OPTIONS
fi

echo "== configure =="
cmake -B "$BUILD" -S "$ROOT" -DSLINGEN_SANITIZE="$SANITIZE"

echo "== build =="
cmake --build "$BUILD" -j "$JOBS"

if [ -z "$SANITIZE" ]; then
  echo "== clang-tidy smoke =="
  # Static-analysis gate over the IR and runtime layers (the .clang-tidy
  # at the repo root pins the check set; WarningsAsErrors makes any new
  # warning fail the run). Uses the compile database the configure step
  # exports; skipped where clang-tidy is not installed.
  if command -v clang-tidy > /dev/null 2>&1; then
    clang-tidy -p "$BUILD" --quiet \
      "$ROOT"/src/cir/*.cpp "$ROOT"/src/runtime/*.cpp
  else
    echo "clang-tidy unavailable; skipping"
  fi
fi

echo "== ctest =="
(cd "$BUILD" && ctest --output-on-failure -j "$JOBS")

echo "== JIT under a TMPDIR with a space =="
# The compiler is spawned with an argument vector, so staging paths (and
# the precompiled prologue under TMPDIR) need no quoting.
SPACE_TMP=$(mktemp -d)
mkdir "$SPACE_TMP/sp ace"
TMPDIR="$SPACE_TMP/sp ace" "$BUILD/tests/jit_test" > "$SPACE_TMP/log" 2>&1 \
  || { cat "$SPACE_TMP/log"; exit 1; }
TMPDIR="$SPACE_TMP/sp ace" "$BUILD/tests/service_test" > "$SPACE_TMP/log" 2>&1 \
  || { cat "$SPACE_TMP/log"; exit 1; }
rm -rf "$SPACE_TMP"

echo "== tuner on one CPU =="
# A tuning round compiles its candidates on as many CPUs as the affinity
# mask grants; with one CPU they compile serially. Keep that path covered.
if command -v taskset > /dev/null 2>&1; then
  ONE_CPU_LOG=$(mktemp)
  taskset -c 0 "$BUILD/tests/service_test" \
    --gtest_filter='ServiceTuner.*:ServiceFlight.*' > "$ONE_CPU_LOG" 2>&1 \
    || { cat "$ONE_CPU_LOG"; exit 1; }
  rm -f "$ONE_CPU_LOG"
else
  echo "taskset unavailable; skipping"
fi

if [ -z "$SANITIZE" ]; then
  echo "== slbench smoke =="
  # The benchmark package builds the library from these sources; its
  # smoke run (all four workloads at toy sizes) fails on any program
  # change that breaks it.
  cmake -S "$ROOT/slbench" -B "$BUILD/slbench" > /dev/null
  cmake --build "$BUILD/slbench" -j "$JOBS" > /dev/null
  ctest --test-dir "$BUILD/slbench" -L bench --output-on-failure
fi

echo "== slc smoke =="
SMOKE_OUT=$(mktemp)
SMOKE_BODY=$(mktemp)
SMOKE_CACHE=$(mktemp -d)
SLD_PID=""
cleanup() {
  [ -n "$SLD_PID" ] && kill "$SLD_PID" 2>/dev/null || true
  rm -rf "$SMOKE_OUT" "$SMOKE_BODY" "$SMOKE_CACHE"
}
trap cleanup EXIT
for LA in "$ROOT"/examples/*.la; do
  echo "-- slc $(basename "$LA")"
  "$BUILD/slc" -isa avx "$LA" > "$SMOKE_OUT"
  grep -q "immintrin.h" "$SMOKE_OUT"
  "$BUILD/slc" -batch -cache-dir "$SMOKE_CACHE" "$LA" > "$SMOKE_OUT"
  grep -q "_batch(int count" "$SMOKE_OUT"
  # Second run must serve the identical kernel from the disk cache.
  "$BUILD/slc" -batch -cache-dir "$SMOKE_CACHE" "$LA" | cmp -s - "$SMOKE_OUT"
  # Batched Auto resolves in one place: the C is identical without a
  # compiler, through the compiling service (above), and on the direct
  # pipeline path (-print-basic), whose header names no cache key.
  "$BUILD/slc" -batch "$LA" | cmp -s - "$SMOKE_OUT" \
    || { echo "slc -batch and -batch -cache-dir emit different C" >&2; exit 1; }
  tail -n +3 "$SMOKE_OUT" > "$SMOKE_BODY"
  "$BUILD/slc" -batch -print-basic "$LA" 2> /dev/null | tail -n +3 \
    | cmp -s - "$SMOKE_BODY" \
    || { echo "slc -batch pipeline path emits different C" >&2; exit 1; }
  # Every pinned batch strategy emits the shared batch ABI plus the
  # _batch_span sub-range entry threaded dispatch needs.
  "$BUILD/slc" -batch -batch-strategy loop "$LA" > "$SMOKE_OUT"
  grep -q "_batch(int count" "$SMOKE_OUT"
  grep -q "_batch_span(int start" "$SMOKE_OUT"
  "$BUILD/slc" -batch -batch-strategy fused "$LA" > "$SMOKE_OUT"
  grep -q "_batch(int count" "$SMOKE_OUT"
  grep -q "_batch_span(int start" "$SMOKE_OUT"
  grep -q "_fusedblk" "$SMOKE_OUT"
  # The count % nu remainder must run through the runtime-masked fused
  # tail block, never a scalar fallback loop. (A `!`-negated command is
  # exempt from set -e, so negative checks spell out their exit.)
  grep -q "_fusedtail" "$SMOKE_OUT"
  grep -q "int active_" "$SMOKE_OUT"
  if grep -q "for (; b < count; ++b)" "$SMOKE_OUT"; then
    echo "fused emission has a scalar remainder loop" >&2
    exit 1
  fi
  # Unknown strategy names are refused, not mapped to a default.
  if "$BUILD/slc" -batch -batch-strategy vec "$LA" > /dev/null 2>&1; then
    echo "slc accepted -batch-strategy vec" >&2
    exit 1
  fi
  # The C-IR static verifier must accept every emission -- the scalar
  # function, its scalar recompile and the widened block and tail (exit is
  # non-zero on any rejection; the per-emission report lands on stderr).
  "$BUILD/slc" -verify-ir -batch -isa avx "$LA" > /dev/null
done

echo "== C-IR verifier over the paper kernels =="
# The paper's 18 benchmark programs (la/Programs.cpp) on every ISA: the
# static verifier must accept each single-instance kernel (slc exits
# non-zero on any rejection). The differential ctest runs the same kernels
# against both oracles, in every leg including the sanitized ones.
paper_la() {
  N=$2
  case $1 in
  potrf) cat <<EOF
Mat A($N, $N) <In, UpSym, PD>;
Mat X($N, $N) <Out, UpTri, NS>;
X' * X = A;
EOF
    ;;
  trsyl) cat <<EOF
Mat L($N, $N) <In, LoTri, NS>;
Mat U($N, $N) <In, UpTri, NS>;
Mat C($N, $N) <In>;
Mat X($N, $N) <Out>;
L * X + X * U = C;
EOF
    ;;
  trlya) cat <<EOF
Mat L($N, $N) <In, LoTri, NS>;
Mat S($N, $N) <In, LoSym>;
Mat X($N, $N) <Out, LoSym>;
L * X + X * L' = S;
EOF
    ;;
  trtri) cat <<EOF
Mat L($N, $N) <In, LoTri, NS>;
Mat X($N, $N) <Out, LoTri, NS>;
X = inv(L);
EOF
    ;;
  kf) cat <<EOF
Mat F($N, $N) <In>; Mat Bm($N, $N) <In>; Mat Q($N, $N) <In, UpSym>;
Mat H($N, $N) <In>; Mat R($N, $N) <In, UpSym, PD>;
Mat P($N, $N) <InOut, UpSym, PD>;
Vec u($N) <In>; Vec x($N) <InOut>; Vec z($N) <In>; Vec y($N) <Out>;
Mat Y($N, $N) <Out, UpSym>; Vec v0($N) <Out>;
Mat M1($N, $N) <Out>; Mat M2($N, $N) <Out>;
Mat M3($N, $N) <Out, UpSym, PD>; Mat U($N, $N) <Out, UpTri, NS, ow(M3)>;
Vec v1($N) <Out>; Vec v2($N) <Out>;
Mat M4($N, $N) <Out, ow(M1)>; Mat M5($N, $N) <Out, ow(M4)>;
y = F * x + Bm * u;
Y = F * P * F' + Q;
v0 = z - H * y;
M1 = H * Y;
M2 = Y * H';
M3 = M1 * H' + R;
U' * U = M3;
U' * v1 = v0;
U * v2 = v1;
U' * M4 = M1;
U * M5 = M4;
x = y + M2 * v2;
P = Y - M2 * M5;
EOF
    ;;
  gpr) cat <<EOF
Mat K($N, $N) <In, UpSym, PD>; Mat X($N, $N) <In>; Vec x($N) <In>;
Vec y($N) <In>; Mat L($N, $N) <Out, LoTri, NS, ow(K)>;
Vec t0($N) <Out>; Vec t1($N) <Out>; Vec k($N) <Out>; Vec v($N) <Out>;
Sca phi <Out>; Sca psi <Out>; Sca lambda <Out>;
L * L' = K;
L * t0 = y;
L' * t1 = t0;
k = X * x;
phi = k' * t1;
L * v = k;
psi = x' * x - v' * v;
lambda = y' * t1;
EOF
    ;;
  l1a) cat <<EOF
Mat W($N, $N) <In>; Mat A($N, $N) <In>; Vec x0($N) <In>; Vec y($N) <In>;
Vec v1($N) <InOut>; Vec z1($N) <InOut>; Vec v2($N) <InOut>;
Vec z2($N) <InOut>; Sca alpha <In>; Sca beta <In>; Sca tau <In>;
Vec y1($N) <Out>; Vec y2($N) <Out>; Vec x1($N) <Out>; Vec x($N) <Out>;
y1 = alpha * v1 + tau * z1;
y2 = alpha * v2 + tau * z2;
x1 = W' * y1 - A' * y2;
x = x0 + beta * x1;
z1 = y1 - W * x;
z2 = y2 - (y - A * x);
v1 = alpha * v1 + tau * z1;
v2 = alpha * v2 + tau * z2;
EOF
    ;;
  esac
}
PAPER_LA="$SMOKE_CACHE/paper.la"
for KERNEL in potrf:4 potrf:12 potrf:20 trsyl:4 trsyl:12 trsyl:20 \
  trlya:4 trlya:12 trlya:20 trtri:4 trtri:12 trtri:20 \
  kf:4 kf:12 gpr:4 gpr:12 l1a:4 l1a:12; do
  paper_la "${KERNEL%%:*}" "${KERNEL##*:}" > "$PAPER_LA"
  for ISA in scalar sse2 avx avx512; do
    "$BUILD/slc" -verify-ir -isa "$ISA" "$PAPER_LA" > /dev/null \
      2> "$SMOKE_OUT" || { echo "-- $KERNEL $ISA"; cat "$SMOKE_OUT"; exit 1; }
  done
done

echo "== threaded-batch smoke =="
# A batched entry produced with a pinned dispatch width must record it in
# the disk tier's .meta (threads=4), and the fused no-transpose emission
# must be what a fused-pinned request serves.
THREAD_CACHE="$SMOKE_CACHE/threaded_cache"
"$BUILD/slc" -batch -batch-strategy fused -batch-threads 4 \
  -cache-dir "$THREAD_CACHE" "$ROOT/examples/potrf.la" > "$SMOKE_OUT"
grep -q "_fusedblk" "$SMOKE_OUT"
grep -rq "threads=4" "$THREAD_CACHE"
grep -rq "strategy=fused" "$THREAD_CACHE"
# Pinned-pool execution smoke: 4 pool threads (workers pinned to cores by
# default) over ragged odd counts, exact coverage and sticky assignment.
"$BUILD/tests/batch_test" \
  --gtest_filter='BatchPool.*:Batched.ThreadedDispatch*' > "$SMOKE_OUT" \
  || { cat "$SMOKE_OUT"; exit 1; }
# And the same dispatch path with pinning disabled via the env knob.
SLINGEN_POOL_PIN=0 "$BUILD/tests/batch_test" \
  --gtest_filter='BatchPool.CoversEveryIndexExactlyOnce' > "$SMOKE_OUT" \
  || { cat "$SMOKE_OUT"; exit 1; }

echo "== sld round-trip smoke =="
# Spawn a daemon on a temp socket, request a kernel through slc -connect,
# and require the served artifact to be byte-identical to what a local
# KernelService produces for the same request -- plus a daemon-side warm.
SLD_SOCK="$SMOKE_CACHE/sld.sock"
"$BUILD/sld" -socket "$SLD_SOCK" -cache-dir "$SMOKE_CACHE/sld_cache" \
  2> "$SMOKE_CACHE/sld.log" &
SLD_PID=$!
for _ in $(seq 100); do
  [ -S "$SLD_SOCK" ] && break
  kill -0 "$SLD_PID" 2>/dev/null || { cat "$SMOKE_CACHE/sld.log"; exit 1; }
  sleep 0.1
done
[ -S "$SLD_SOCK" ]
for LA in "$ROOT"/examples/*.la; do
  echo "-- sld round trip $(basename "$LA")"
  "$BUILD/slc" -connect "$SLD_SOCK" "$LA" > "$SMOKE_OUT"
  "$BUILD/slc" -cache-dir "$SMOKE_CACHE/local_cache" "$LA" \
    | cmp -s - "$SMOKE_OUT"
done
# Warm the daemon for every example, then confirm it still answers.
ls "$ROOT"/examples/*.la > "$SMOKE_CACHE/warm.list"
"$BUILD/slc" -connect "$SLD_SOCK" -warm "$SMOKE_CACHE/warm.list" 2>/dev/null
"$BUILD/slc" -connect "$SLD_SOCK" \
  "$(head -1 "$SMOKE_CACHE/warm.list")" > "$SMOKE_OUT"
grep -q "cache key:" "$SMOKE_OUT"

echo "== observability smoke =="
# A traced, timed request against the live daemon: the Chrome trace export
# must be loadable JSON with at least one complete span, and the wire must
# deliver the server-side phase breakdown.
"$BUILD/slc" -connect "$SLD_SOCK" -timing \
  -trace-out "$SMOKE_CACHE/trace.json" "$ROOT/examples/potrf.la" \
  > "$SMOKE_OUT" 2> "$SMOKE_CACHE/timing.log"
grep -q "timing: tier=" "$SMOKE_CACHE/timing.log"
grep -q '"traceEvents"' "$SMOKE_CACHE/trace.json"
grep -q '"ph": "X"' "$SMOKE_CACHE/trace.json" # >= 1 complete span
if command -v python3 > /dev/null 2>&1; then
  python3 -c 'import json, sys
spans = json.load(open(sys.argv[1]))["traceEvents"]
assert len(spans) >= 1 and all("dur" in s for s in spans), "bad trace"' \
    "$SMOKE_CACHE/trace.json"
fi
# The daemon's STATS now carries the disk-tier gauges, and slc -stats
# derives hit rates from them.
"$BUILD/slc" -connect "$SLD_SOCK" -stats > "$SMOKE_CACHE/stats.out"
grep -q "mem-entries=" "$SMOKE_CACHE/stats.out"
grep -q "disk-entries=" "$SMOKE_CACHE/stats.out"
grep -q "disk-bytes=" "$SMOKE_CACHE/stats.out"
grep -q "disk-scans=" "$SMOKE_CACHE/stats.out"
grep -q "# requests=" "$SMOKE_CACHE/stats.out"
grep -q " hit=" "$SMOKE_CACHE/stats.out"
# The METRICS verb scrapes the whole registry (sorted keys) plus the
# per-kernel/per-peer top-K tables over the wire.
"$BUILD/slc" -connect "$SLD_SOCK" -metrics > "$SMOKE_CACHE/metrics.out"
grep -q "server.get.us.count=" "$SMOKE_CACHE/metrics.out"
grep -q "top.kernel." "$SMOKE_CACHE/metrics.out"
grep -q "top.peer." "$SMOKE_CACHE/metrics.out"
# SIGUSR1 dumps counters + histograms to stderr without disturbing service.
kill -USR1 "$SLD_PID"
sleep 0.3
grep -q "stats dump" "$SMOKE_CACHE/sld.log"
grep -q "service.get.us.count=" "$SMOKE_CACHE/sld.log"
"$BUILD/slc" -connect "$SLD_SOCK" "$ROOT/examples/potrf.la" > /dev/null
kill "$SLD_PID"
for _ in $(seq 100); do
  kill -0 "$SLD_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SLD_PID" 2>/dev/null; then
  echo "sld did not shut down cleanly"; exit 1
fi
SLD_PID=""
[ ! -S "$SLD_SOCK" ] # clean shutdown removes the socket

echo "== client API install smoke =="
# Export the public API into a scratch prefix, compile the session example
# *out of tree* against it (public header + static lib only), then serve
# one request through `local:` and through a live sld daemon: stdout
# (provenance + numeric checksums) and the saved shared objects must match
# byte for byte -- the facade's local/remote identity promise.
INSTALL="$SMOKE_CACHE/install"
cmake --install "$BUILD" --prefix "$INSTALL" > /dev/null
test -f "$INSTALL/include/slingen/client.h"
# GNUInstallDirs puts the archive in lib/ or lib64/ depending on platform.
LIBSLINGEN=$(find "$INSTALL" -name libslingen.a | head -1)
test -n "$LIBSLINGEN"
# Sanitized legs must build the out-of-tree client with the same
# sanitizer the installed archive was compiled with, or the link drops
# the runtime (undefined __tsan_init and friends).
c++ -std=c++20 ${SANITIZE:+-fsanitize=$SANITIZE} -I"$INSTALL/include" \
  "$ROOT/examples/client_session.cpp" \
  "$LIBSLINGEN" -ldl -lpthread -lm \
  -o "$SMOKE_CACHE/session_demo"
SLD2_SOCK="$SMOKE_CACHE/sld2.sock"
"$BUILD/sld" -socket "$SLD2_SOCK" -cache-dir "$SMOKE_CACHE/sld2_cache" \
  2> "$SMOKE_CACHE/sld2.log" &
SLD_PID=$!
for _ in $(seq 100); do
  [ -S "$SLD2_SOCK" ] && break
  kill -0 "$SLD_PID" 2>/dev/null || { cat "$SMOKE_CACHE/sld2.log"; exit 1; }
  sleep 0.1
done
"$SMOKE_CACHE/session_demo" "local:$SMOKE_CACHE/session_cache" \
  "$ROOT/examples/potrf.la" -so "$SMOKE_CACHE/session_local.so" \
  > "$SMOKE_CACHE/session_local.out" 2> /dev/null
"$SMOKE_CACHE/session_demo" "$SLD2_SOCK" \
  "$ROOT/examples/potrf.la" -so "$SMOKE_CACHE/session_remote.so" \
  > "$SMOKE_CACHE/session_remote.out" 2> /dev/null
cmp "$SMOKE_CACHE/session_local.so" "$SMOKE_CACHE/session_remote.so"
cmp "$SMOKE_CACHE/session_local.out" "$SMOKE_CACHE/session_remote.out"
grep -q "cache key:" "$SMOKE_CACHE/session_local.out"
# The fallback address serves even though this daemon is now gone.
kill "$SLD_PID"
for _ in $(seq 100); do
  kill -0 "$SLD_PID" 2>/dev/null || break
  sleep 0.1
done
SLD_PID=""
"$SMOKE_CACHE/session_demo" "auto:$SLD2_SOCK" "$ROOT/examples/potrf.la" \
  > "$SMOKE_CACHE/session_auto.out" 2> /dev/null
grep -q "cache key:" "$SMOKE_CACHE/session_auto.out"

echo "== chaos smoke =="
# A fault-armed daemon -- every generation stalls 300ms and at most one
# runs at a time -- under 8 concurrent deadline-carrying clients on
# distinct keys. Everything must come back in bounded wall clock with
# typed outcomes only (served, overloaded, or deadline-exceeded), and the
# daemon must survive to serve a clean request afterwards.
SLD3_SOCK="$SMOKE_CACHE/sld3.sock"
SLINGEN_FAULTS="slow-generate:0:300" "$BUILD/sld" -socket "$SLD3_SOCK" \
  -max-concurrent-gen 1 -max-conns 32 -idle-timeout-ms 10000 \
  -service use-compiler=0 2> "$SMOKE_CACHE/sld3.log" &
SLD_PID=$!
for _ in $(seq 100); do
  [ -S "$SLD3_SOCK" ] && break
  kill -0 "$SLD_PID" 2>/dev/null || { cat "$SMOKE_CACHE/sld3.log"; exit 1; }
  sleep 0.1
done
[ -S "$SLD3_SOCK" ]
CHAOS_START=$(date +%s)
CHAOS_PIDS=""
for I in $(seq 8); do
  "$BUILD/slc" -connect "$SLD3_SOCK" -timeout-ms 10000 -retries 3 \
    -name "chaos_$I" "$ROOT/examples/potrf.la" \
    > "$SMOKE_CACHE/chaos_$I.out" 2> "$SMOKE_CACHE/chaos_$I.err" &
  CHAOS_PIDS="$CHAOS_PIDS $!"
done
SERVED=0
SHED=0
I=0
for PID in $CHAOS_PIDS; do
  I=$((I + 1))
  if wait "$PID"; then
    SERVED=$((SERVED + 1))
    grep -q "cache key:" "$SMOKE_CACHE/chaos_$I.out"
  else
    SHED=$((SHED + 1))
    # Failures must be the documented resilience verdicts, nothing else.
    grep -Eq "overloaded|deadline" "$SMOKE_CACHE/chaos_$I.err"
  fi
done
CHAOS_ELAPSED=$(( $(date +%s) - CHAOS_START ))
echo "-- chaos: $SERVED served, $SHED shed/expired in ${CHAOS_ELAPSED}s"
[ $((SERVED + SHED)) -eq 8 ]
[ "$SERVED" -ge 1 ]
[ "$CHAOS_ELAPSED" -lt 60 ]
# The daemon survived the storm: a fresh request serves, and the STATS
# document carries the resilience counters.
"$BUILD/slc" -connect "$SLD3_SOCK" -timeout-ms 30000 \
  "$ROOT/examples/potrf.la" > "$SMOKE_OUT"
grep -q "cache key:" "$SMOKE_OUT"
"$BUILD/slc" -connect "$SLD3_SOCK" -stats > "$SMOKE_CACHE/chaos_stats.out"
grep -q "shed=" "$SMOKE_CACHE/chaos_stats.out"
grep -q "deadline-expired=" "$SMOKE_CACHE/chaos_stats.out"
grep -q "quarantined=" "$SMOKE_CACHE/chaos_stats.out"
kill "$SLD_PID"
for _ in $(seq 100); do
  kill -0 "$SLD_PID" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$SLD_PID" 2>/dev/null; then
  echo "sld did not shut down cleanly after the chaos run"; exit 1
fi
SLD_PID=""

echo "== crash-dump smoke =="
# A fault-armed daemon with one GET parked in a 20s generation stall is
# SIGSEGV'd mid-flight. The pre-opened crash-dump file must carry the
# signal banner plus a parseable flight-recorder ring whose newest record
# is the in-flight request: phase=start with no matching phase=done.
SLD4_SOCK="$SMOKE_CACHE/sld4.sock"
CRASH_DUMP="$SMOKE_CACHE/sld4.crash"
SLINGEN_FAULTS="slow-generate:0:20000" "$BUILD/sld" -socket "$SLD4_SOCK" \
  -cache-dir "$SMOKE_CACHE/sld4_cache" -crash-dump "$CRASH_DUMP" \
  -service use-compiler=0 2> "$SMOKE_CACHE/sld4.log" &
SLD_PID=$!
for _ in $(seq 100); do
  [ -S "$SLD4_SOCK" ] && break
  kill -0 "$SLD_PID" 2>/dev/null || { cat "$SMOKE_CACHE/sld4.log"; exit 1; }
  sleep 0.1
done
[ -S "$SLD4_SOCK" ]
"$BUILD/slc" -connect "$SLD4_SOCK" -timeout-ms 30000 -name crash_req \
  "$ROOT/examples/potrf.la" > /dev/null 2>&1 &
CRASH_CLIENT=$!
sleep 1
kill -SEGV "$SLD_PID"
for _ in $(seq 100); do
  kill -0 "$SLD_PID" 2>/dev/null || break
  sleep 0.1
done
wait "$CRASH_CLIENT" 2>/dev/null || true
SLD_PID=""
grep -q "sld: fatal SIGSEGV" "$CRASH_DUMP"
grep -q "flight-recorder dump:" "$CRASH_DUMP"
grep -q "phase=start verb=get" "$CRASH_DUMP"
if grep -q "phase=done" "$CRASH_DUMP"; then
  echo "crash dump claims the in-flight request completed"; exit 1
fi

echo "== batch strategy bench smoke =="
# One (size, count) point; the binary itself skips cleanly when no native
# compiler or no vector ISA is available, so this passes everywhere.
BENCH_OUT="$SMOKE_CACHE/BENCH_batch.json" "$ROOT/tools/bench_batch.sh" --smoke
test -s "$SMOKE_CACHE/BENCH_batch.json"

echo "== serve load bench smoke =="
# A tiny cold+warm load run against a private daemon; the output must be
# well-formed with both passes present.
BENCH_OUT="$SMOKE_CACHE/BENCH_serve.json" "$ROOT/tools/bench_serve.sh" --smoke
test -s "$SMOKE_CACHE/BENCH_serve.json"
grep -q '"runs"' "$SMOKE_CACHE/BENCH_serve.json"

echo "== serve bench warm-p99 gate =="
# The warm pass is pure cache serving, so a large regression there is a
# serving-stack defect rather than compiler noise. Fail only when the
# fresh warm p99 is both >2x the committed baseline in BENCH_serve.json
# and above a 2ms noise floor -- sub-millisecond numbers jitter too much
# on shared CI machines to gate on the ratio alone.
if command -v python3 > /dev/null 2>&1; then
  python3 - "$SMOKE_CACHE/BENCH_serve.json" "$ROOT/BENCH_serve.json" <<'PYEOF'
import json, sys

def warm_p99(path):
    with open(path) as f:
        doc = json.load(f)
    for run in doc.get("runs", []):
        if run.get("pass") == "warm":
            return run["p99_us"]
    return None

fresh = warm_p99(sys.argv[1])
committed = warm_p99(sys.argv[2])
if fresh is None or committed is None:
    print("p99 gate: warm pass missing (stub bench output); skipping")
    sys.exit(0)
print(f"p99 gate: fresh warm p99 {fresh}us vs committed {committed}us")
if fresh > 2 * committed and fresh > 2000:
    sys.exit(f"p99 gate: warm p99 regressed ({fresh}us > 2x {committed}us)")
PYEOF
else
  echo "p99 gate: python3 unavailable; skipping"
fi

echo "check.sh: all green"
