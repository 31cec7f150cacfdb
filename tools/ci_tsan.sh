#!/usr/bin/env bash
#===- tools/ci_tsan.sh - ThreadSanitizer CI battery ----------------------===#
#
# Part of the Proteus reproduction project.
#
# Configures a dedicated build tree with -DPROTEUS_SANITIZE=thread, builds
# the JIT/cache/concurrency test binaries, and runs them under TSan. Any
# data race, lock-order inversion, or thread leak fails the script.
#
# Usage: tools/ci_tsan.sh [build-dir]   (default: build-tsan)
#
#===----------------------------------------------------------------------===#
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-tsan}"

# halt_on_error makes the first report fatal so CI fails fast;
# second_deadlock_stack improves lock-order-inversion diagnostics.
export TSAN_OPTIONS="${TSAN_OPTIONS:-halt_on_error=1 second_deadlock_stack=1}"

TESTS=(
  support_test
  cache_eviction_test
  cache_crash_test
  jit_test
  jit_concurrency_test
  tiered_jit_test
  stream_test
  trace_test
  observability_test
  analysis_test
  capture_replay_test
  capture_pressure_test
  autotuner_test
  fleet_cache_test
  sched_test
)

echo "== Configuring TSan build in ${BUILD_DIR} =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROTEUS_SANITIZE=thread

echo "== Building test battery =="
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target "${TESTS[@]}"

STATUS=0
for T in "${TESTS[@]}"; do
  echo "== TSan: ${T} =="
  if ! "${BUILD_DIR}/tests/${T}"; then
    echo "!! ${T} FAILED under ThreadSanitizer"
    STATUS=1
  fi
done

# Re-run the concurrency battery with tracing enabled so the trace ring
# buffer, name interning, and counter paths are exercised under contention
# from every pipeline thread. The export itself is discarded.
TRACE_TMP="$(mktemp -d)"
trap 'rm -rf "${TRACE_TMP}"' EXIT
echo "== TSan: jit_concurrency_test (PROTEUS_TRACE enabled) =="
if ! PROTEUS_TRACE="${TRACE_TMP}/tsan_trace.json" \
     "${BUILD_DIR}/tests/jit_concurrency_test"; then
  echo "!! jit_concurrency_test FAILED under ThreadSanitizer with tracing"
  STATUS=1
fi

# One more concurrency pass with the sanitizer and per-pass verification on
# the hot path: the analysis stage and the PostPassHook closure run on every
# compile worker, so races in their shared state (the report, the verify
# failure slot, the counters) would surface here.
echo "== TSan: jit_concurrency_test (PROTEUS_ANALYZE=error, PROTEUS_VERIFY_EACH=1) =="
if ! PROTEUS_ANALYZE=error PROTEUS_VERIFY_EACH=1 \
     "${BUILD_DIR}/tests/jit_concurrency_test"; then
  echo "!! jit_concurrency_test FAILED under ThreadSanitizer with analysis enabled"
  STATUS=1
fi

# The whole cold-launch ladder under contention: a cold launch maps the
# generic binary as a cover, and the pooled promotions generic -> Tier-0
# -> Final hot-swap loaded kernels while the storm races through the warm
# and cold paths — the richest cross-thread interleaving the runtime has.
echo "== TSan: jit_concurrency_test (PROTEUS_TIER=on, PROTEUS_ASYNC=fallback) =="
if ! PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     "${BUILD_DIR}/tests/jit_concurrency_test"; then
  echo "!! jit_concurrency_test FAILED under ThreadSanitizer with tiering enabled"
  STATUS=1
fi

# The lock-free specialization-hash memo: 4 threads x 4 devices race
# fresh keys into one kernel's memo past its capacity while hits read it
# without a lock, under the full cold-launch ladder so covers and
# promotions interleave with the warm path. Repeated: one pass can miss a
# publication race.
echo "== TSan: jit_concurrency_test memo storm x5 (PROTEUS_TIER=on, PROTEUS_ASYNC=fallback) =="
if ! PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     "${BUILD_DIR}/tests/jit_concurrency_test" \
     --gtest_filter='*LockFreeHashMemo*' --gtest_repeat=5; then
  echo "!! jit_concurrency_test memo storm FAILED under ThreadSanitizer"
  STATUS=1
fi

# Multi-stream + multi-device launch storm: threads spray launches across
# a 4-device pool with 4 streams each while generic covers and their
# Tier-0 and Final promotions hot-swap loaded kernels on every device —
# per-device locks, per-stream timelines, and the cross-device promotion
# path all race here.
echo "== TSan: stream_test (PROTEUS_NUM_DEVICES=4, PROTEUS_DEFAULT_STREAMS=4, PROTEUS_TIER=on, PROTEUS_ASYNC=fallback) =="
if ! PROTEUS_NUM_DEVICES=4 PROTEUS_DEFAULT_STREAMS=4 \
     PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     "${BUILD_DIR}/tests/stream_test"; then
  echo "!! stream_test FAILED under ThreadSanitizer with a multi-device pool"
  STATUS=1
fi

# The same storm with launch capture recording into a bounded ring: the
# launch path snapshots device memory under per-device locks while the
# capture writer thread serializes bitcode and persists artifacts — the
# ring hand-off, the shedding counters, and the writer race the storm.
CAPTURE_TMP="${TRACE_TMP}/captures"
echo "== TSan: stream_test (capture enabled during the multi-device storm) =="
if ! PROTEUS_NUM_DEVICES=4 PROTEUS_DEFAULT_STREAMS=4 \
     PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     PROTEUS_CAPTURE=on PROTEUS_CAPTURE_DIR="${CAPTURE_TMP}" \
     "${BUILD_DIR}/tests/stream_test"; then
  echo "!! stream_test FAILED under ThreadSanitizer with capture enabled"
  STATUS=1
fi

# Variant tuning during a tiered multi-device storm: concurrent variant
# races replay artifacts on throwaway devices while the decision store,
# the tuner counters, and the installFinalTier hot-swap path contend with
# live launches and background promotions (ConcurrentTuningStorm drives
# the threads; the env turns every knob the tuner interacts with).
echo "== TSan: autotuner_test (PROTEUS_NUM_DEVICES=4, PROTEUS_TIER=on, PROTEUS_ASYNC=fallback) =="
if ! PROTEUS_NUM_DEVICES=4 PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     "${BUILD_DIR}/tests/autotuner_test"; then
  echo "!! autotuner_test FAILED under ThreadSanitizer with tuning enabled"
  STATUS=1
fi

# The bottleneck-aware policy during the same tiered multi-device tuning
# storm: roofline classification runs on the compile workers, verdict
# reads/writes hit the policy store from every tuning session, and the
# axis-pruning counters race concurrent generateVariants calls.
echo "== TSan: autotuner_test (PROTEUS_NUM_DEVICES=4, PROTEUS_TIER=on, PROTEUS_ASYNC=fallback, PROTEUS_POLICY=on) =="
if ! PROTEUS_NUM_DEVICES=4 PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     PROTEUS_POLICY=on \
     "${BUILD_DIR}/tests/autotuner_test"; then
  echo "!! autotuner_test FAILED under ThreadSanitizer with the policy enabled"
  STATUS=1
fi

# Placement storm over a bigger heterogeneous pool: launcher threads spray
# load-placed launches across 4 mixed-arch devices under tiering and
# generic covers — the lock-free load gauges, the scheduler's cursors, the
# per-arch compiles from one parse-once index, and the promotion hot-swap
# on every device all race here.
echo "== TSan: sched_test (PROTEUS_NUM_DEVICES=4, PROTEUS_DEVICE_ARCHS=amdgcn-sim,nvptx-sim, PROTEUS_TIER=on, PROTEUS_ASYNC=fallback) =="
if ! PROTEUS_NUM_DEVICES=4 PROTEUS_DEVICE_ARCHS=amdgcn-sim,nvptx-sim \
     PROTEUS_TIER=on PROTEUS_ASYNC=fallback \
     "${BUILD_DIR}/tests/sched_test"; then
  echo "!! sched_test FAILED under ThreadSanitizer with a heterogeneous pool"
  STATUS=1
fi

# Fleet-cache storm: the full concurrency battery again, but every cache
# operation now rides the shared-cache daemon — the group-commit lookup
# combiner, the batch fan-out across the server's worker pool, and the
# cross-process claim release paths all race the compile storm. The daemon
# itself is a TSan build, so server-side races fail the lane too.
echo "== TSan: jit_concurrency_test (PROTEUS_CACHE_REMOTE=on via proteus-cached) =="
cmake --build "${BUILD_DIR}" -j "$(nproc)" --target proteus-cached
FLEET_SOCK="${TRACE_TMP}/cached.sock"
FLEET_DIR="${TRACE_TMP}/fleet-cache"
"${BUILD_DIR}/tools/proteus-cached" \
  "--socket=${FLEET_SOCK}" "--dir=${FLEET_DIR}" --shards=4 --workers=4 &
FLEET_PID=$!
trap 'kill "${FLEET_PID}" 2>/dev/null || true; rm -rf "${TRACE_TMP}"' EXIT
for _ in $(seq 1 100); do
  [ -S "${FLEET_SOCK}" ] && break
  sleep 0.05
done
if ! PROTEUS_CACHE_REMOTE=on PROTEUS_CACHE_SOCKET="${FLEET_SOCK}" \
     PROTEUS_CACHE_SHARDS=4 \
     "${BUILD_DIR}/tests/jit_concurrency_test"; then
  echo "!! jit_concurrency_test FAILED under ThreadSanitizer against the cache daemon"
  STATUS=1
fi
if ! kill -0 "${FLEET_PID}" 2>/dev/null; then
  echo "!! proteus-cached exited during the fleet storm"
  STATUS=1
fi
kill "${FLEET_PID}" 2>/dev/null || true
wait "${FLEET_PID}" 2>/dev/null || true

# Every artifact the storm recorded must replay byte-identical — capture
# under contention may shed, but must never corrupt.
if compgen -G "${CAPTURE_TMP}/*.pcap" > /dev/null; then
  echo "== TSan: replaying storm-captured artifacts =="
  cmake --build "${BUILD_DIR}" -j "$(nproc)" --target proteus-replay
  if ! "${BUILD_DIR}/tools/proteus-replay" "${CAPTURE_TMP}"/*.pcap; then
    echo "!! storm-captured artifacts failed differential replay"
    STATUS=1
  fi
fi

if [ "${STATUS}" -eq 0 ]; then
  echo "== TSan battery passed: no data races detected =="
else
  echo "== TSan battery FAILED =="
fi
exit "${STATUS}"
