#!/usr/bin/env bash
# Full check: plain Release build + ctest, then an address+undefined
# sanitizer build + ctest, then a thread-sanitizer build running the
# concurrency-sensitive suites (kernel execution layer, thread pool, the
# rewired tensor ops). The full-ctest lanes include the crash-safety
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
# unit tests don't reach: the packed GEMM (all four transpose variants,
# serial and at 2, 4 and hw threads), the serial TopKDot scan over both
# layouts (20000 x 32, plus 20003 x 33 for the row and column tails of
# the AVX2 lane-per-row path and a short last block of the packed
# RowPanel serving scan), and the kmeans_assign rows: one IVF k-means
# assignment pass through the lane-per-centroid kernel (20000 x 32 and
# 20003 x 33, 141 centroids, so the 16-lane panel has padding lanes), and
# the sq8_scan rows: the SQ8 IVF probe scan through the 8-row group kernel
# (35 of 141 lists of a 20000 x 32 catalog, and 5 of 7 lists of 700 x 280
# for the block crossing, the column tail and a short last group), and
# Fit's vector loops: the gemm_garcia rows (GARCIA's three attention-logit
# GEMMs at E = 11,872, through the AVX2 micro-kernel, the single-column
# path and the scalar micro-kernel, each checked against a naive triple
# loop), the crc32 row (slice-by-8 over 16 MiB against a byte loop) and
# the adam_step row (one update of 2M floats, AVX2 against scalar). Exits
# nonzero if either TopKDot ranking, any nearest centroid or distance, any
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
# TSan and ASan are mutually exclusive, so this is a third tree. Only the
# threaded suites run here: they exercise the sharded kernels (the GEMM
# tile grid and shared-B packing, TopKDot's block merge, the SQ8 scan) and
# their thread-count bit-parity contract, the thread pool, the
# thread-local nn::NoGradScope (nn_tensor_test), the block
# sampler's thread-count-invariance contract, the ticket sequencer
# (core_ticket_gate_test), the concurrent batched serving path
# (BatchRanker + ResilientRanker's sequenced resolve phase, and its
# answer cache: the single-flight wait on a pending entry's future and
# eviction decided in resolve order), and the
# shared immutable SQ8 IvfIndex — including the sharded asymmetric scan +
# exact re-rank — probed from many threads (serving_retrieval_test), and
# whole training runs: the threaded cases of models_garcia_test and
# models_baselines_test (ThreadedTrainingMatchesSerialExactly, plus
# GARCIA's SampledTrainingThreadInvariantAndAccurate) are the only tests
# that run the sharded GEMM inside a full Fit (models::TrainLoop).
TSAN_DIR="$ROOT/build-tsan"
cmake -B "$TSAN_DIR" -S "$ROOT" -DGARCIA_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target core_kernels_test core_gemm_test core_threadpool_test nn_ops_test \
  nn_tensor_test graph_sampler_test core_ticket_gate_test \
  serving_concurrency_test serving_resilience_test serving_retrieval_test \
  models_garcia_test models_baselines_test
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -R '^(core_kernels_test|core_gemm_test|core_threadpool_test|nn_ops_test|nn_tensor_test|graph_sampler_test|core_ticket_gate_test|serving_concurrency_test|serving_resilience_test|serving_retrieval_test)$'
# The training suites run only their threaded cases: the rest are serial,
# and all of models_garcia_test takes ~8 min under TSan (the three
# threaded cases ~100 s together).
for suite in models_garcia_test models_baselines_test; do
  "$TSAN_DIR/tests/$suite" --gtest_filter='*.ThreadedTrainingMatchesSerialExactly:*.SampledTrainingThreadInvariantAndAccurate'
done

echo "==> Lifecycle benchmark smoke: perfbench/test_bench.py"
# The benchmark builds straight from src/ into .bench_build/, so a library
# change that breaks it fails here rather than in a later benchmark run.
python3 "$ROOT/perfbench/test_bench.py"

echo "==> All checks passed"
