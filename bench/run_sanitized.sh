#!/usr/bin/env sh
# Build a slice of the test binaries under a sanitizer and run them.
#
#   bench/run_sanitized.sh              # address+undefined (default)
#   A3CS_SANITIZE=thread bench/run_sanitized.sh
#   A3CS_SANITIZE=undefined bench/run_sanitized.sh   # UBSan-only, numeric slice
#
# Every pass starts with the a3cs-lint stage (see docs/STATIC_ANALYSIS.md) so
# invariant violations fail fast before any sanitizer compile, and builds with
# -DA3CS_WERROR=ON so warnings fail too.
#
# The default ASan/UBSan pass covers the util + obs layers (atomic metrics,
# the shared trace writer, the profiler's thread-local cursors), the
# inference forwards' grow-only per-thread column workspaces (infer_test),
# the kernels' per-thread workspace and lane-group tails against their
# reference loops and the other backend (nn_layers_test,
# backend_check_test), the checkpoint subsystem (sectioned container
# parsing of adversarial bytes, the full save/restore round-trip) and the
# training-health guard (fault injection, rollback recovery), the perf
# observability layer (bench registry, BENCH_*.json diffing, Chrome trace
# export — perf_test), the
# fleet supervisor (protocol/frontier units plus the kill/hang/corrupt
# resume e2e suite — fleet_test, fleet_resume_test), and finishes with an
# end-to-end fault-injection smoke of cosearch_full --guard=heal (profiled,
# with its Chrome trace checked by bench_report --chrome-check), a fleet
# kill-one smoke (cosearch_fleet under A3CS_FLEET_KILL), plus a perf smoke
# (bench_kernels in smoke mode, self-diffed through bench_report --check
# and --chrome-check). The TSan pass
# instead targets the parallel execution layer: the thread pool itself plus
# every kernel and subsystem that dispatches onto it (GEMM/im2col, the
# Conv2d/depthwise layer fan-outs with their 1-4 thread bit-exactness
# checks, the kernels' per-thread workspace under both backends' 4-thread
# grids (backend_check_test), the inference forwards and their per-thread
# column workspaces,
# VecEnv stepping, the top-K NAS backward, the DAS sweeps, concurrent serve
# batches), the guard's cross-thread pieces
# (the global FaultInjector, the metrics it bumps), the obs layer
# (obs_test: the run scope installs the trace writers that pool-thread
# ProfScopes and trace events read) and the checkpoint manager's background
# commit against the loop thread's snapshots, barriers and ring reads
# (ckpt_test, guard_recovery_test, and the kill-and-resume byte-equality
# suite ckpt_resume_test), run with A3CS_THREADS=4 so the pool actually fans
# out and the commit runs on its own thread. The standalone UBSan pass sweeps the
# numeric layers — tensor kernels, nn layers/optimizers, the NAS/DAS/accel
# math — where signed overflow and bad float casts would hide.
#
# Every pass finishes with a kernel-backend stage: when the host supports
# the avx2 backend (probed via `bench_kernels --backends`), the numeric
# tier-1 slice reruns under A3CS_BACKEND=avx2 so the SIMD kernels get the
# same sanitizer coverage as the scalar defaults; hosts without AVX2/FMA
# print a SKIP and stay green.
set -eu

SAN="${A3CS_SANITIZE:-address}"
ROOT="$(cd "$(dirname "$0")/.." && pwd)"
BUILD="$ROOT/build-san-$SAN"
SMOKE=""

if [ "$SAN" = "thread" ]; then
  TESTS="thread_pool_test obs_test tensor_test nn_layers_test infer_test backend_check_test arcade_test determinism_test guard_test serve_test ckpt_test guard_recovery_test ckpt_resume_test"
  # Skip the (wall-clock) stall-watchdog cases: TSan's slowdown makes any
  # timing threshold meaningless.
  GUARD_FILTER="-*Stall*"
  export A3CS_THREADS="${A3CS_THREADS:-4}"
  export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1}"
elif [ "$SAN" = "undefined" ]; then
  TESTS="tensor_test nn_layers_test infer_test nn_optim_test nn_zoo_test rl_test nas_test accel_test das_test core_test"
  GUARD_FILTER=""
else
  TESTS="util_test obs_test thread_pool_test infer_test nn_layers_test backend_check_test ckpt_test io_test guard_test guard_recovery_test perf_test serve_test fleet_test fleet_resume_test"
  GUARD_FILTER=""
  SMOKE="cosearch_full cosearch_fleet bench_kernels bench_report predictor_server"
fi

cmake -B "$BUILD" -S "$ROOT" -DA3CS_SANITIZE="$SAN" -DA3CS_WERROR=ON >/dev/null

# Lint first: a determinism/serialization/concurrency violation fails the
# run before we spend minutes on instrumented compiles. The cross-TU graph
# families (layering, lock order, serialization coverage — the `lint_graph`
# ctest) run on their own first: they skip the per-file rule engine, so an
# architectural violation fails in milliseconds.
cmake --build "$BUILD" -j "$(nproc)" --target a3cs_lint >/dev/null
echo "== a3cs_lint --graph-only =="
"$BUILD/tools/a3cs_lint/a3cs_lint" --repo-root "$ROOT" --graph-only
echo "== a3cs_lint =="
"$BUILD/tools/a3cs_lint/a3cs_lint" --repo-root "$ROOT"

# shellcheck disable=SC2086
cmake --build "$BUILD" -j "$(nproc)" --target $TESTS $SMOKE

export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"
export ASAN_OPTIONS="${ASAN_OPTIONS:-detect_leaks=1}"

status=0
for t in $TESTS; do
  echo "== $t ($SAN${A3CS_THREADS:+, A3CS_THREADS=$A3CS_THREADS}) =="
  if [ -n "$GUARD_FILTER" ] && [ "$t" = "guard_test" ]; then
    "$BUILD/tests/$t" --gtest_filter="$GUARD_FILTER" || status=$?
  else
    "$BUILD/tests/$t" || status=$?
  fi
done

# End-to-end guard smoke (ASan pass only): inject a persistent NaN weight
# into a tiny real pipeline run and require the heal-mode guard to finish it
# via checkpoint rollback (an abort would crash out non-zero). See
# docs/ROBUSTNESS.md. Profiling and a Chrome trace ride along, so the pass
# also covers the nested run scopes' teardown (docs/OBSERVABILITY.md); the
# trace must come out balanced.
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== guard fault-injection smoke ($SAN) =="
  CKPT_DIR="$(mktemp -d "${TMPDIR:-/tmp}/a3cs_guard_smoke.XXXXXX")"
  A3CS_SCALE="${A3CS_SCALE:-0.05}" \
  A3CS_GUARD=heal A3CS_GUARD_SKIPS=1 A3CS_GUARD_SOFTENS=1 \
  A3CS_FAULT_NAN_PARAM=5 \
  A3CS_CKPT_DIR="$CKPT_DIR" A3CS_CKPT_EVERY_ITERS=2 A3CS_CKPT_KEEP=8 \
  A3CS_PROFILE=1 A3CS_PROFILE_CHROME="$CKPT_DIR/chrome.json" \
    "$BUILD/examples/cosearch_full" Catch || status=$?
  if [ "$status" -eq 0 ]; then
    "$BUILD/tools/bench_report/bench_report" \
      --chrome-check "$CKPT_DIR/chrome.json" || status=$?
  fi
  rm -rf "$CKPT_DIR"
fi

# Perf observability smoke (ASan pass only): run the kernel bench suite in
# smoke mode with a Chrome trace, self-diff its JSON artifact through
# bench_report --check (must be all-ok) and validate the trace with
# --chrome-check. See docs/BENCHMARKING.md.
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== perf observability smoke ($SAN) =="
  PERF_DIR="$(mktemp -d "${TMPDIR:-/tmp}/a3cs_perf_smoke.XXXXXX")"
  A3CS_BENCH_SMOKE=1 A3CS_PROFILE_CHROME="$PERF_DIR/trace.json" \
    "$BUILD/bench/bench_kernels" --json "$PERF_DIR/kernels.json" || status=$?
  if [ "$status" -eq 0 ]; then
    "$BUILD/tools/bench_report/bench_report" --check \
      --baseline "$PERF_DIR/kernels.json" \
      --current "$PERF_DIR/kernels.json" || status=$?
    "$BUILD/tools/bench_report/bench_report" \
      --chrome-check "$PERF_DIR/trace.json" || status=$?
  fi
  rm -rf "$PERF_DIR"
fi

# Predictor-server smoke (ASan pass only): pipe an NDJSON script — ping,
# network info, a real eval, a repeat eval that must come back from the
# memo-cache, and two malformed lines that must produce error replies rather
# than a crash — through the stdin transport and require one reply per
# request plus a clean EOF shutdown (docs/SERVING.md).
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== predictor_server stdin smoke ($SAN) =="
  SRV_OUT="$(mktemp "${TMPDIR:-/tmp}/a3cs_serve_smoke.XXXXXX")"
  CFG='chunks=1;alloc=0,0,0;chunk=6x6,noc=0,df=1,toc=4,tic=8,split=0.34000000000000002:0.33000000000000002:0.33000000000000002'
  {
    printf '%s\n' '{"op":"ping","id":1}'
    printf '%s\n' '{"op":"info","id":2,"network":"Vanilla"}'
    printf '{"op":"eval","id":3,"network":"Vanilla","configs":["%s"]}\n' "$CFG"
    printf '{"op":"eval","id":4,"network":"Vanilla","configs":["%s"]}\n' "$CFG"
    printf '%s\n' 'this is not json'
    printf '%s\n' '{"op":"frobnicate","id":5}'
    printf '%s\n' '{"op":"stats","id":6}'
  } | "$BUILD/examples/predictor_server" --quiet > "$SRV_OUT" || status=$?
  if [ "$status" -eq 0 ]; then
    [ "$(wc -l < "$SRV_OUT")" -eq 7 ] || { echo "smoke: expected 7 replies"; status=1; }
    grep -q '"id":3,"op":"eval"' "$SRV_OUT" || { echo "smoke: eval reply missing"; status=1; }
    grep -q '"cached":true' "$SRV_OUT" || { echo "smoke: repeat eval missed the cache"; status=1; }
    [ "$(grep -c '"ok":false' "$SRV_OUT")" -eq 2 ] || { echo "smoke: expected 2 error replies"; status=1; }
  fi
  rm -f "$SRV_OUT"
fi

# Fleet kill-one smoke (ASan pass only): run a 2-worker fleet, kill worker 0
# at iteration 3 via the deterministic fault injector, and require the
# supervisor to restart it from its checkpoint ring and finish the whole run
# with exit 0 and a non-empty merged frontier (docs/FLEET.md).
if [ -n "$SMOKE" ] && [ "$status" -eq 0 ]; then
  echo "== fleet kill-one smoke ($SAN) =="
  FLEET_DIR="$(mktemp -d "${TMPDIR:-/tmp}/a3cs_fleet_smoke.XXXXXX")"
  A3CS_FLEET_KILL=0@3 \
    "$BUILD/examples/cosearch_fleet" Catch --workers 2 --frames 64 \
    --backoff 0.05 --out "$FLEET_DIR" >/dev/null || status=$?
  if [ "$status" -eq 0 ]; then
    [ -s "$FLEET_DIR/frontier.txt" ] || { echo "smoke: frontier.txt missing"; status=1; }
    grep -q '^point ' "$FLEET_DIR/frontier.txt" || { echo "smoke: frontier has no points"; status=1; }
  fi
  rm -rf "$FLEET_DIR"
fi

# Kernel-backend stage: rerun the numeric tier-1 slice under the avx2
# backend so the per-TU SIMD kernels (src/tensor/backend/kernels_avx2.cc)
# see the same sanitizer as the scalar path. Probe the host first —
# bench_kernels --backends prints one usable backend per line.
if [ "$status" -eq 0 ]; then
  cmake --build "$BUILD" -j "$(nproc)" --target bench_kernels \
    tensor_test nn_layers_test infer_test determinism_test \
    backend_check_test >/dev/null
  if "$BUILD/bench/bench_kernels" --backends | grep -qx avx2; then
    for t in tensor_test nn_layers_test infer_test determinism_test \
        backend_check_test; do
      echo "== $t ($SAN, A3CS_BACKEND=avx2) =="
      A3CS_BACKEND=avx2 "$BUILD/tests/$t" || status=$?
    done
  else
    echo "== backend stage: SKIP (avx2 backend unavailable on this host) =="
  fi
fi
exit "$status"
