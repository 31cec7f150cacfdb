#!/usr/bin/env bash
#===- tools/ci_asan.sh - AddressSanitizer + UBSan CI battery -------------===#
#
# Part of the Proteus reproduction project.
#
# Configures a dedicated build tree with
# -DPROTEUS_SANITIZE=address,undefined (undefined behaviour is made fatal
# with -fno-sanitize-recover=undefined, and _GLIBCXX_ASSERTIONS bounds-checks
# standard containers), builds everything with -Werror, and runs the full
# ctest suite under both sanitizers. Any -Wall -Wextra warning, heap/stack/
# global overflow, use-after-free, leak, container-bounds or
# undefined-behaviour report fails the script. The PTX assembler's, the
# bitcode reader's, the fleet wire protocol's, the capture artifact
# decoder's and the persistent cache entry frame's mutation tests, and the
# use-list edit script, then run again with PROTEUS_FUZZ_ITERS=10000.
#
# Usage: tools/ci_asan.sh [build-dir] [extra ctest args...]
#        (default build dir: build-asan)
#
#===----------------------------------------------------------------------===#
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-${REPO_ROOT}/build-asan}"
shift $(( $# > 0 ? 1 : 0 ))

# abort_on_error gives a core-style exit the test runner reports as a
# failure; print_stacktrace makes UBSan reports name the faulting frame.
export ASAN_OPTIONS="${ASAN_OPTIONS:-abort_on_error=1 detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1 halt_on_error=1}"

echo "== Configuring ASan+UBSan build in ${BUILD_DIR} =="
cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DPROTEUS_SANITIZE=address,undefined \
  "-DCMAKE_CXX_FLAGS=-fno-sanitize-recover=undefined -D_GLIBCXX_ASSERTIONS -Werror"

echo "== Building =="
cmake --build "${BUILD_DIR}" -j "$(nproc)"

echo "== Running the full test suite under ASan+UBSan =="
STATUS=0
(cd "${BUILD_DIR}" && ctest --output-on-failure -j "$(nproc)" "$@") ||
  STATUS=1

# The PTX assembler, the bitcode reader, the fleet wire protocol, the
# capture artifact decoder and the cache entry frame read bytes that could
# come from anywhere: sweep each a second time with 10k seeded mutants (the
# per-decoder fuzzing floor).
echo "== PTX assembler mutation sweep (PROTEUS_FUZZ_ITERS=10000) =="
PROTEUS_FUZZ_ITERS=10000 "${BUILD_DIR}/tests/codegen_test" \
  --gtest_filter=PtxTest.MutantVerdictsMatchGolden || STATUS=1
echo "== Bitcode reader mutation sweep (PROTEUS_FUZZ_ITERS=10000) =="
PROTEUS_FUZZ_ITERS=10000 "${BUILD_DIR}/tests/bitcode_test" \
  --gtest_filter=BitcodeTest.MutantVerdictsMatchGolden || STATUS=1
echo "== Fleet protocol mutation sweep (PROTEUS_FUZZ_ITERS=10000) =="
PROTEUS_FUZZ_ITERS=10000 "${BUILD_DIR}/tests/fleet_cache_test" \
  --gtest_filter=FleetProtocolTest.MutantVerdictsMatchGolden || STATUS=1
echo "== Capture artifact mutation sweep (PROTEUS_FUZZ_ITERS=10000) =="
PROTEUS_FUZZ_ITERS=10000 "${BUILD_DIR}/tests/capture_replay_test" \
  --gtest_filter=ArtifactFormatTest.MutantVerdictsMatchGolden || STATUS=1
echo "== Cache entry frame mutation sweep (PROTEUS_FUZZ_ITERS=10000) =="
PROTEUS_FUZZ_ITERS=10000 "${BUILD_DIR}/tests/cache_crash_test" \
  --gtest_filter=CacheFrameTest.MutantVerdictsMatchGolden || STATUS=1
# The use list's inline storage spills to and returns from the heap as
# use counts cross its capacity; a long edit script walks those edges.
echo "== Use-list edit script (PROTEUS_FUZZ_ITERS=10000) =="
PROTEUS_FUZZ_ITERS=10000 "${BUILD_DIR}/tests/ir_core_test" \
  --gtest_filter=UseListTest.RandomEditScriptMatchesAVectorModel || STATUS=1

if [ "${STATUS}" -eq 0 ]; then
  echo "== ASan+UBSan battery passed =="
else
  echo "== ASan+UBSan battery FAILED =="
fi
exit "${STATUS}"
