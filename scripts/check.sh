#!/usr/bin/env bash
# Full check: plain Release build + ctest, then an address+undefined
# sanitizer build + ctest, then a thread-sanitizer build running the
# concurrency-sensitive suites (kernel execution layer, thread pool, the
# rewired tensor ops). The full-ctest lanes include the crash-safety
# suites: train_checkpoint_test (kill-point sweep, checkpoint container
# corruption matrix — the file-size/offset arithmetic there is exactly
# what ASan/UBSan should see) and the torn-write EmbeddingStore tests in
# serving_resilience_test. Usage: scripts/check.sh [extra ctest args].
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
run_suite "$ROOT/build"

echo "==> Sanitizer build (address;undefined)"
run_suite "$ROOT/build-asan" -DGARCIA_SANITIZE="address;undefined"

echo "==> ASan smoke: micro_kernels --speedup_json"
# Exercises the packed GEMM (all four transpose variants), the segment
# kernels and the TopKDot serving scan (20000 x 32, plus 20003 x 33 for
# the AVX2 lane-per-row path's row and column tails) under ASan/UBSan at
# bench shapes the unit tests don't reach; exits nonzero if TopKDot's
# ranking differs from the scalar reference. One repeat keeps it fast;
# output goes to the build tree.
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
# threaded suites run here: they exercise every ShardedFor dispatch, the
# destination-sharded reduction kernels and their thread-count bit-parity
# contract, the block sampler's thread-count-invariance contract, the
# ticket sequencer (core_ticket_gate_test), the concurrent batched serving
# path (BatchRanker + ResilientRanker's sequenced resolve phase), and the
# shared immutable SQ8 IvfIndex — including the sharded asymmetric scan +
# exact re-rank — probed from many threads (serving_retrieval_test).
TSAN_DIR="$ROOT/build-tsan"
cmake -B "$TSAN_DIR" -S "$ROOT" -DGARCIA_SANITIZE=thread
cmake --build "$TSAN_DIR" -j "$JOBS" \
  --target core_kernels_test core_gemm_test core_threadpool_test nn_ops_test \
  graph_sampler_test core_ticket_gate_test \
  serving_concurrency_test serving_resilience_test serving_retrieval_test
ctest --test-dir "$TSAN_DIR" --output-on-failure -j "$JOBS" \
  -R '^(core_kernels_test|core_gemm_test|core_threadpool_test|nn_ops_test|graph_sampler_test|core_ticket_gate_test|serving_concurrency_test|serving_resilience_test|serving_retrieval_test)$'

echo "==> Lifecycle benchmark smoke: perfbench/test_bench.py"
# The benchmark builds straight from src/ into .bench_build/, so a library
# change that breaks it fails here rather than in a later benchmark run.
python3 "$ROOT/perfbench/test_bench.py"

echo "==> All checks passed"
