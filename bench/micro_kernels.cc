// Kernel microbenchmarks (google-benchmark): the hot paths of training and
// serving — GEMM, segment ops, the GARCIA encoder layer, InfoNCE
// forward+backward, and top-K embedding retrieval — plus a thread sweep of
// the GEMM, the one training kernel that shards.
//
// `micro_kernels --speedup_json` skips google-benchmark and instead times
// GEMM (all four transpose variants, at GARCIA-shaped sizes) at 1, 2, 4 and
// hardware_concurrency threads, emitting a JSON speedup table (serial
// wall-clock / threaded wall-clock) to stdout
// AND to BENCH_kernels.json in the working directory. Speedups are
// hardware-dependent: on a multi-core box GEMM at 512^3 should clear 2x at
// 4 threads; a single-core container reports ~1x and the serial wall-clock
// column is the meaningful axis. GARCIA_BENCH_REPEATS overrides the
// median-of-5 repeat count (the ASan smoke in scripts/check.sh uses 1).
// The table's `topk_dot` rows time the serving scan (kernels::TopKDot,
// 20000 x embedding_dim, k = 10, serial; and 20003 x (embedding_dim + 1)
// for the vector path's tails) against the scalar reference; the tool
// exits 1 if the two rankings differ in any byte.
//
// `micro_kernels --sample_json` times one GARCIA finetune step on the full
// graph against the block-sampled step (TrainConfig::sample_fanout,
// DESIGN.md §5e) and emits the speedup as JSON; on the small bench scale
// the minibatch step should clear 2x.


#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/string_util.h"

#include "core/kernels.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "models/common.h"
#include "models/gnn_encoder.h"
#include "nn/loss.h"
#include "nn/ops.h"
#include "serving/ranking_service.h"

namespace garcia {
namespace {

/// Thread counts for the sweep benchmarks: {1, 2, 4, hw}, deduped.
std::vector<int64_t> SweepThreadCounts() {
  std::vector<int64_t> counts = {1, 2, 4};
  const int64_t hw =
      static_cast<int64_t>(std::max(1u, std::thread::hardware_concurrency()));
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

void BM_Gemm(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  core::Rng rng(1);
  core::Matrix a = core::Matrix::Randn(n, n, &rng);
  core::Matrix b = core::Matrix::Randn(n, n, &rng);
  core::Matrix c(n, n);
  for (auto _ : state) {
    core::Matrix::Gemm(false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_SegmentSoftmax(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  const size_t segments = edges / 8;
  core::Rng rng(2);
  std::vector<uint32_t> seg(edges);
  for (auto& s : seg) {
    s = static_cast<uint32_t>(rng.UniformInt(static_cast<uint64_t>(segments)));
  }
  nn::Tensor scores =
      nn::Tensor::Constant(core::Matrix::Randn(edges, 1, &rng));
  for (auto _ : state) {
    nn::Tensor out = nn::SegmentSoftmax(scores, seg, segments);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * edges);
}
BENCHMARK(BM_SegmentSoftmax)->Arg(10000)->Arg(100000);

void BM_SegmentSum(benchmark::State& state) {
  const size_t edges = static_cast<size_t>(state.range(0));
  const size_t segments = edges / 8;
  core::Rng rng(3);
  std::vector<uint32_t> seg(edges);
  for (auto& s : seg) {
    s = static_cast<uint32_t>(rng.UniformInt(static_cast<uint64_t>(segments)));
  }
  nn::Tensor x = nn::Tensor::Constant(core::Matrix::Randn(edges, 32, &rng));
  for (auto _ : state) {
    nn::Tensor out = nn::SegmentSum(x, seg, segments);
    benchmark::DoNotOptimize(out.value().data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * edges);
}
BENCHMARK(BM_SegmentSum)->Arg(10000)->Arg(100000);

graph::SearchGraph MakeBenchGraph(size_t queries, size_t services,
                                  size_t links) {
  core::Rng rng(4);
  graph::SearchGraph g(queries, services, 11);
  g.attributes() = core::Matrix::Randn(queries + services, 11, &rng);
  for (size_t i = 0; i < links; ++i) {
    g.AddLink(static_cast<uint32_t>(rng.UniformInt(uint64_t{queries})),
              static_cast<uint32_t>(rng.UniformInt(uint64_t{services})),
              graph::EdgeKind::kInteraction,
              static_cast<float>(rng.Uniform()), 0);
  }
  g.Finalize();
  return g;
}

void BM_GarciaEncoderForward(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  core::Rng rng(5);
  graph::SearchGraph g = MakeBenchGraph(queries, queries / 4, queries * 4);
  models::GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 32, 2, &rng);
  for (auto _ : state) {
    models::GnnOutput out = enc.Encode(g);
    benchmark::DoNotOptimize(out.readout.value().data());
  }
}
BENCHMARK(BM_GarciaEncoderForward)->Arg(500)->Arg(2000);

void BM_GarciaEncoderBackward(benchmark::State& state) {
  const size_t queries = static_cast<size_t>(state.range(0));
  core::Rng rng(6);
  graph::SearchGraph g = MakeBenchGraph(queries, queries / 4, queries * 4);
  models::GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 32, 2, &rng);
  auto params = enc.Parameters();
  for (auto _ : state) {
    for (auto& p : params) p.ZeroGrad();
    nn::Tensor loss = nn::MeanAll(enc.Encode(g).readout);
    loss.Backward();
    benchmark::DoNotOptimize(loss.scalar());
  }
}
BENCHMARK(BM_GarciaEncoderBackward)->Arg(500)->Arg(2000);

void BM_InfoNceForwardBackward(benchmark::State& state) {
  const size_t batch = static_cast<size_t>(state.range(0));
  core::Rng rng(7);
  nn::Tensor a = nn::Tensor::Leaf(core::Matrix::Randn(batch, 32, &rng), true);
  nn::Tensor c = nn::Tensor::Leaf(core::Matrix::Randn(batch, 32, &rng), true);
  std::vector<uint32_t> targets(batch);
  for (size_t i = 0; i < batch; ++i) targets[i] = static_cast<uint32_t>(i);
  for (auto _ : state) {
    a.ZeroGrad();
    c.ZeroGrad();
    nn::Tensor loss = nn::InfoNce(a, c, targets, 0.1f);
    loss.Backward();
    benchmark::DoNotOptimize(loss.scalar());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * batch *
                          batch);
}
BENCHMARK(BM_InfoNceForwardBackward)->Arg(256)->Arg(1024);

/// The served embedding width (TrainConfig::embedding_dim).
const size_t kServeDim = models::TrainConfig{}.embedding_dim;

void BM_TopKRetrieval(benchmark::State& state) {
  const size_t services = static_cast<size_t>(state.range(0));
  core::Rng rng(8);
  core::Matrix cands = core::Matrix::Randn(services, kServeDim, &rng);
  core::Matrix query = core::Matrix::Randn(1, kServeDim, &rng);
  for (auto _ : state) {
    auto top = serving::TopKInnerProduct(query.row(0), kServeDim, cands, 10);
    benchmark::DoNotOptimize(top.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          services);
}
BENCHMARK(BM_TopKRetrieval)->Arg(1000)->Arg(100000);

// ----- Thread sweep: the sharded GEMM -----

void BM_GemmThreads(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const size_t threads = static_cast<size_t>(state.range(1));
  core::ExecutionContext ctx(threads);
  core::Rng rng(9);
  core::Matrix a = core::Matrix::Randn(n, n, &rng);
  core::Matrix b = core::Matrix::Randn(n, n, &rng);
  core::Matrix c(n, n);
  for (auto _ : state) {
    core::kernels::Gemm(ctx, false, false, 1.0f, a, b, 0.0f, &c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmThreads)
    ->ArgsProduct({{256, 512}, garcia::SweepThreadCounts()});

// ----- --speedup_json: chrono-timed speedup table -----

/// Repeat count for the chrono sweeps (median-of-N). GARCIA_BENCH_REPEATS
/// overrides the default 5; the ASan smoke lane sets it to 1.
int BenchRepeats() {
  const char* env = std::getenv("GARCIA_BENCH_REPEATS");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<int>(v);
  }
  return 5;
}

/// Median-of-repeats wall-clock seconds of fn() (one warmup call first).
template <typename Fn>
double TimeMedianSeconds(int repeats, Fn fn) {
  fn();  // warmup
  std::vector<double> secs;
  secs.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    secs.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

struct SweepEntry {
  size_t threads;
  double seconds;
};

std::string SweepJsonLine(const char* kernel, const std::string& shape,
                          const std::vector<SweepEntry>& entries, bool last) {
  std::string line = core::StrFormat(
      "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"sweep\": [", kernel,
      shape.c_str());
  const double serial_secs = entries.front().seconds;
  for (size_t i = 0; i < entries.size(); ++i) {
    line += core::StrFormat(
        "%s{\"threads\": %zu, \"seconds\": %.6f, \"speedup\": %.2f}",
        i == 0 ? "" : ", ", entries[i].threads, entries[i].seconds,
        serial_secs / entries[i].seconds);
  }
  line += core::StrFormat("]}%s\n", last ? "" : ",");
  return line;
}

/// Thread sweep of one GEMM variant: C(m x n) = op(A) @ op(B) with k as the
/// contracted dimension. Operand matrices are allocated in their stored
/// (pre-op) orientation.
std::string GemmSweepLine(const char* kernel, size_t m, size_t k, size_t n,
                          bool trans_a, bool trans_b,
                          const std::vector<int64_t>& counts, int repeats,
                          core::Rng* rng, bool last) {
  core::Matrix a = trans_a ? core::Matrix::Randn(k, m, rng)
                           : core::Matrix::Randn(m, k, rng);
  core::Matrix b = trans_b ? core::Matrix::Randn(n, k, rng)
                           : core::Matrix::Randn(k, n, rng);
  core::Matrix c(m, n);
  std::vector<SweepEntry> entries;
  for (int64_t t : counts) {
    core::ExecutionContext ctx(static_cast<size_t>(t));
    entries.push_back({static_cast<size_t>(t), TimeMedianSeconds(repeats, [&] {
                         core::kernels::Gemm(ctx, trans_a, trans_b, 1.0f, a,
                                             b, 0.0f, &c);
                       })});
  }
  const std::string shape = core::StrFormat("%zux%zux%zu", m, k, n);
  return SweepJsonLine(kernel, shape, entries, last);
}

/// One `topk_dot` row: serial TopKDot over a services x dim catalog timed
/// against the scalar reference (DotRowsScalar + a partial sort under the
/// same order). Clears *identical if the two top-k lists differ in any
/// byte.
std::string TopKDotLine(size_t services, size_t dim, size_t k, int repeats,
                        core::Rng* rng, bool last, bool* identical) {
  core::Matrix cands = core::Matrix::Randn(services, dim, rng);
  core::Matrix query = core::Matrix::Randn(1, dim, rng);
  std::vector<std::pair<uint32_t, float>> fast, reference;
  const double fast_secs = TimeMedianSeconds(repeats, [&] {
    fast = core::kernels::TopKDot(core::SerialExecution(), query.row(0), dim,
                                  cands, k);
  });
  const double scalar_secs = TimeMedianSeconds(repeats, [&] {
    std::vector<float> scores(services);
    core::kernels::internal::DotRowsScalar(query.row(0), cands.data(),
                                           services, dim, scores.data());
    reference.resize(services);
    for (size_t i = 0; i < services; ++i) {
      reference[i] = {static_cast<uint32_t>(i), scores[i]};
    }
    std::partial_sort(reference.begin(), reference.begin() + k,
                      reference.end(), core::kernels::RanksBefore);
    reference.resize(k);
  });
  const bool same = fast.size() == reference.size() &&
                    std::memcmp(fast.data(), reference.data(),
                                fast.size() * sizeof(fast[0])) == 0;
  if (!same) *identical = false;
  return core::StrFormat(
      "    {\"kernel\": \"topk_dot\", \"shape\": \"%zux%zu/k%zu\", "
      "\"threads\": 1, \"avx2\": %s, \"scalar_seconds\": %.6f, "
      "\"seconds\": %.6f, \"speedup\": %.2f, \"bit_identical\": %s}%s\n",
      services, dim, k,
      core::kernels::internal::HasAvx2() ? "true" : "false", scalar_secs,
      fast_secs, scalar_secs / fast_secs, same ? "true" : "false",
      last ? "" : ",");
}

int RunSpeedupJson() {
  const std::vector<int64_t> counts = SweepThreadCounts();
  const int repeats = BenchRepeats();
  core::Rng rng(12);

  std::string json =
      core::StrFormat("{\n  \"hardware_concurrency\": %u,\n  \"results\": [\n",
                      std::thread::hardware_concurrency());

  // GEMM, all four transpose variants at GARCIA-shaped sizes:
  //   gemm_nn  512^3            — square forward-pass reference point; the
  //                               acceptance target (>= 2x at 4 threads on
  //                               multicore).
  //   gemm_nt  1024x64x1024     — InfoNCE logits A @ B^T (batch x batch from
  //                               d-dim embeddings).
  //   gemm_tn  64x32768x64      — backward dW = X^T @ dY: tiny output, huge
  //                               contracted k; parallelizes only via the
  //                               2-D tile grid.
  //   gemm_tt  512^3            — square with both operands strided.
  json += GemmSweepLine("gemm", 512, 512, 512, false, false, counts, repeats,
                        &rng, false);
  json += GemmSweepLine("gemm_nt", 1024, 64, 1024, false, true, counts,
                        repeats, &rng, false);
  json += GemmSweepLine("gemm_tn", 64, 32768, 64, true, false, counts,
                        repeats, &rng, false);
  json += GemmSweepLine("gemm_tt", 512, 512, 512, true, true, counts, repeats,
                        &rng, false);

  // TopKDot against the scalar reference scan: at the serving shape, and
  // one row and one column past it so the vector path's row and column
  // tails run as well.
  bool topk_identical = true;
  json += TopKDotLine(20000, kServeDim, 10, repeats, &rng, false,
                      &topk_identical);
  json += TopKDotLine(20003, kServeDim + 1, 10, repeats, &rng, true,
                      &topk_identical);

  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (std::FILE* f = std::fopen("BENCH_kernels.json", "w")) {
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::fprintf(stderr, "Wrote BENCH_kernels.json\n");
  } else {
    std::fprintf(stderr, "Could not write BENCH_kernels.json\n");
  }
  if (!topk_identical) {
    std::fprintf(stderr,
                 "topk_dot: TopKDot diverged from the scalar reference\n");
    return 1;
  }
  return 0;
}

// ----- --sample_json: minibatch vs full-graph encode step -----

/// Times one GARCIA finetune step (encode + batch loss + backward) on the
/// full graph against the same step over a NeighborSampler block seeded by
/// the batch rows (DESIGN.md §5e), emitting a JSON speedup record. The
/// graph matches the small bench preset scale.
int RunSampleJson() {
  core::Rng rng(13);
  const size_t queries = 8000, services = 2000, links = 40000;
  graph::SearchGraph g = MakeBenchGraph(queries, services, links);
  models::GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 32, 2, &rng);
  auto params = enc.Parameters();

  // One step's seed frontier: the distinct query/service nodes of a
  // 256-example batch, collected exactly like the training loop does.
  const size_t batch = 256;
  graph::SeedSet seed_set(/*identity=*/false);
  for (size_t i = 0; i < batch; ++i) {
    seed_set.Map(g.QueryNode(
        static_cast<uint32_t>(rng.UniformInt(uint64_t{queries}))));
    seed_set.Map(g.ServiceNode(
        static_cast<uint32_t>(rng.UniformInt(uint64_t{services}))));
  }
  const std::vector<uint32_t>& seeds = seed_set.seeds();

  const size_t fanout = 4;
  graph::NeighborSampler sampler(&g, enc.num_layers(), fanout);
  core::Rng sample_rng(1013);

  const double full_secs = TimeMedianSeconds(5, [&] {
    for (auto& p : params) p.ZeroGrad();
    models::GnnOutput out = enc.Encode(g);
    nn::Tensor loss = nn::MeanAll(nn::GatherRows(out.readout, seeds));
    loss.Backward();
  });
  const double mini_secs = TimeMedianSeconds(5, [&] {
    for (auto& p : params) p.ZeroGrad();
    graph::Block b = sampler.Sample(seeds, &sample_rng);
    // The block readout rows are exactly the seeds, in order.
    nn::Tensor loss = nn::MeanAll(enc.EncodeBlock(g, b).readout);
    loss.Backward();
  });

  graph::Block stats = sampler.Sample(seeds, &sample_rng);
  size_t block_edges = 0;
  for (const auto& layer : stats.layers) block_edges += layer.src.size();

  std::printf(
      "{\n"
      "  \"benchmark\": \"minibatch_vs_full_encode_step\",\n"
      "  \"preset\": \"small\",\n"
      "  \"graph\": {\"nodes\": %zu, \"edges\": %zu},\n"
      "  \"batch_examples\": %zu,\n"
      "  \"seed_nodes\": %zu,\n"
      "  \"fanout\": %zu,\n"
      "  \"block\": {\"nodes\": %zu, \"edges\": %zu},\n"
      "  \"full_step_seconds\": %.6f,\n"
      "  \"minibatch_step_seconds\": %.6f,\n"
      "  \"speedup\": %.2f\n"
      "}\n",
      g.num_nodes(), g.num_edges(), batch, seeds.size(), fanout,
      stats.nodes.size(), block_edges, full_secs, mini_secs,
      full_secs / mini_secs);
  return 0;
}

}  // namespace
}  // namespace garcia

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedup_json") == 0) {
      return garcia::RunSpeedupJson();
    }
    if (std::strcmp(argv[i], "--sample_json") == 0) {
      return garcia::RunSampleJson();
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
