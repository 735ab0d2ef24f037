#!/usr/bin/env bash
# Full check: plain Release build + ctest, then an address+undefined
# sanitizer build + ctest, then a thread-sanitizer build running the
# suites that start threads (the thread pool and concurrent serving).
# Training is serial. The full-ctest lanes include the crash-safety
# suites: train_checkpoint_test (kill-point sweep, checkpoint container
# corruption matrix), the torn-write EmbeddingStore tests in
# serving_resilience_test, and persistence_fuzz_test — seeded mutations
# of GCK1, GIV2 and GEM2 artifacts through their public decoders, raw
# and with CRCs resealed. The file-size/offset arithmetic of those
# decoders is exactly what ASan/UBSan should see, and the fuzz test runs
# in the ASan/UBSan lane as part of the full ctest, with no extra step.
# Usage: scripts/check.sh [extra ctest args].
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 4)}"

run_suite() {
  local build_dir="$1"
  shift
  cmake -B "$build_dir" -S "$ROOT" "$@"
  cmake --build "$build_dir" -j "$JOBS"
  ctest --test-dir "$build_dir" --output-on-failure -j "$JOBS" "${EXTRA_CTEST_ARGS[@]}"
}

EXTRA_CTEST_ARGS=("$@")

echo "==> Plain build"
# Configured with google-benchmark disabled: no target may need it, so a
# reintroduced find_package(benchmark REQUIRED) fails here.
run_suite "$ROOT/build" -DCMAKE_DISABLE_FIND_PACKAGE_benchmark=ON

echo "==> Sanitizer build (address;undefined)"
run_suite "$ROOT/build-asan" -DGARCIA_SANITIZE="address;undefined"

echo "==> ASan smoke: micro_kernels --speedup_json"
# Runs micro_kernels' whole sweep under ASan/UBSan at bench shapes the
# unit tests don't reach: the packed GEMM (all four transpose variants at
# up to 512^3, each checked against a naive triple loop), the TopKDot
# serving scan over a packed RowPanel (20000 x 32, plus 20003 x 33 for
# the column tail and a short last panel block) against a plain
# DotRowDouble + sort reference, and the kmeans_assign rows: one IVF
# k-means assignment pass through the lane-per-centroid kernel (20000 x 32 and
# 20003 x 33, 141 centroids, so the 16-lane panel has padding lanes), and
# the sq8_scan rows: the SQ8 IVF probe scan through the 8-row group kernel
# (35 of 141 lists of a 20000 x 32 catalog, and 5 of 7 lists of 700 x 280
# for the block crossing, the column tail and a short last group), and
# Fit's vector loops: the gemm_garcia rows (GARCIA's three attention-logit
# GEMMs at E = 11,872, through the AVX2 micro-kernel, the single-column
# path and the scalar micro-kernel, each checked against a naive triple
# loop), the crc32 row (slice-by-8 over 16 MiB against a byte loop) and
# the adam_step row (one update of 2M floats, AVX2 against scalar). Exits
# nonzero if the TopKDot ranking, any nearest centroid or distance, any
# scanned score, any GEMM element, the CRC or any Adam weight or moment
# differs from its reference. One repeat keeps it fast; the JSON table
# goes to stdout and is discarded.
(cd "$ROOT/build-asan/bench" && \
  GARCIA_BENCH_REPEATS=1 ./micro_kernels --speedup_json > /dev/null)

echo "==> ASan smoke: retrieval_recall --json"
# The SQ8 IVF index under ASan/UBSan at bench shapes: k-means build, the
# SQ8 encode/asymmetric-scan/re-rank path, and the probe-prefix
# arithmetic; exits nonzero if any full-probe sweep point diverges from
# the brute-force oracle or any point's default re-rank diverges from
# re-scoring every probed candidate (rerank_k = size()). (The iso-recall
# speedup gate compiles out under sanitizers — timing there is
# meaningless; exactness gates still run.)
(cd "$ROOT/build-asan/bench" && \
  GARCIA_BENCH_REPEATS=1 ./retrieval_recall --json > /dev/null)

echo "==> Sanitizer build (thread)"
# TSan and ASan are mutually exclusive, so this is a third tree. Training
# and every kernel are serial, so only the suites that start threads run
# here: the thread pool, the thread-local nn::NoGradScope (nn_tensor_test),
# the ticket sequencer (core_ticket_gate_test), the process-wide depth
# count of the allocator retention scope entered from two threads
# (core_heap_retention_test), the concurrent batched serving path
# (BatchRanker + ResilientRanker's sequenced resolve phase, and its answer
# cache: the single-flight wait on a pending entry's future and eviction
# decided in resolve order), and the shared immutable SQ8 IvfIndex probed
# concurrently from many threads, each query serial on its own thread
# (serving_retrieval_test).
TSAN_DIR="$ROOT/build-tsan"
cmake -B "$TSAN_DIR" -S "$ROOT" -DGARCIA_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target core_threadpool_test nn_tensor_test core_ticket_gate_test \
  core_heap_retention_test serving_concurrency_test serving_resilience_test \
  serving_retrieval_test
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -R '^(core_threadpool_test|nn_tensor_test|core_ticket_gate_test|core_heap_retention_test|serving_concurrency_test|serving_resilience_test|serving_retrieval_test)$'

echo "==> Lifecycle benchmark smoke: perfbench/test_bench.py"
# The benchmark builds straight from src/ into .bench_build/, so a library
# change that breaks it fails here rather than in a later benchmark run.
python3 "$ROOT/perfbench/test_bench.py"

echo "==> All checks passed"
