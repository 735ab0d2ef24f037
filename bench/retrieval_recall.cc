// Recall/QPS tradeoff of the SQ8 IVF retrieval index (DESIGN.md §5k /
// §5l): sweeps nlist x nprobe over a clustered synthetic catalog,
// reporting recall@10 against the brute-force oracle, single-thread query
// throughput, and resident index bytes, with four gates enforced (nonzero
// exit on any failure):
//   * full-probe oracle gate — at nprobe == nlist every ranked list must
//     be BIT-IDENTICAL to serving::TopKInnerProduct, the full-sort oracle;
//   * re-rank exactness gate — at EVERY sweep point the default-rerank_k
//     answer must equal the same index queried at rerank_k = size(). At
//     that depth the re-rank cutoff is -inf, so every probed candidate is
//     re-scored exactly: the exact float answer over the probed lists
//     (the band-guaranteed re-rank promises identity, not approximation);
//   * storage gate — SQ8 list storage >= 3.5x below n * dim float rows;
//   * iso-recall speedup gate — at the recall >= 0.99 points, the best
//     SQ8 speedup over the brute-force scan serving runs
//     (core::kernels::TopKDot over a RowPanel, packed once outside every
//     timer) must reach >= 7.5x (skipped under sanitizers, where timing is
//     meaningless; exactness gates always run). Each sweep point times its
//     own brute-force passes, interleaved with its index passes, and its
//     speedup is the ratio of the two medians, so drift in the machine's
//     speed during the run moves numerator and denominator together. The
//     gate reads the best of the recall >= 0.99 points' ratios, a maximum
//     over noisy values, so the text and JSON output also give their
//     minimum and median.
//
// `retrieval_recall --json` additionally writes the sweep to
// BENCH_retrieval.json in the working directory (EXPERIMENTS.md records
// the trajectory). GARCIA_BENCH_REPEATS overrides the timing repeat count
// per sweep point (default 3; check.sh's ASan smoke uses 1).

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "core/table.h"
#include "serving/ivf_index.h"
#include "serving/ranking_service.h"

using namespace garcia;

namespace {

constexpr size_t kNumServices = 20000;
constexpr size_t kNumClusters = 128;  // catalog geometry, not the quantizer
constexpr size_t kDim = 64;
constexpr size_t kNumQueries = 400;
constexpr size_t kTopK = 10;
constexpr uint64_t kSeed = 515;
constexpr double kIsoRecallFloor = 0.99;
// Best SQ8 QPS over brute-force QPS at recall >= kIsoRecallFloor. Set so
// the gate has no more headroom than the float-IVF gate it replaced
// (SQ8 >= 2x float QPS): over 5 runs on a 4-vCPU x86 VM that gate read
// 3.60-4.71x (headroom 1.80-2.36) while this ratio read 12.1-17.1x, i.e.
// headroom 1.61-2.28 at 7.5x. Those ratios were taken against a row-major
// brute-force scan. Against the packed panel scan that serving runs, the
// floor was kept: on the same VM three runs read 8.38x, 7.64x and 8.54x
// (headroom 1.02-1.14), while the parent read 10.7x and 12.5x against the
// row-major scan in the same hour.
constexpr double kSpeedupFloor = 7.5;
constexpr double kStorageFloor = 3.5;

// Timing gates are meaningless under a sanitizer (ASan's interceptors
// distort the int8 scan and the float brute-force scan differently); the
// exactness gates still run there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

int Repeats() {
  const char* env = std::getenv("GARCIA_BENCH_REPEATS");
  if (env != nullptr && std::atoi(env) > 0) return std::atoi(env);
  return 3;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

/// Clustered catalog: services concentrate around intention-tree-like
/// centers; queries embed near catalog points (the trained query tower
/// maps queries into the service space). The geometry IVF exists for.
core::Matrix MakeCatalog(core::Rng* rng) {
  core::Matrix centers = core::Matrix::Randn(kNumClusters, kDim, rng, 0.0f, 4.0f);
  core::Matrix catalog(kNumServices, kDim);
  for (size_t i = 0; i < kNumServices; ++i) {
    const size_t c = i % kNumClusters;
    float* row = catalog.row(i);
    for (size_t j = 0; j < kDim; ++j) {
      row[j] = centers.at(c, j) + static_cast<float>(rng->Normal()) * 0.3f;
    }
  }
  return catalog;
}

core::Matrix MakeQueries(const core::Matrix& catalog, core::Rng* rng) {
  core::Matrix queries(kNumQueries, kDim);
  for (size_t q = 0; q < kNumQueries; ++q) {
    const float* anchor =
        catalog.row(rng->UniformInt(uint64_t{kNumServices}));
    float* row = queries.row(q);
    for (size_t j = 0; j < kDim; ++j) {
      row[j] = anchor[j] + static_cast<float>(rng->Normal()) * 0.3f;
    }
  }
  return queries;
}

double RecallAgainst(const serving::RankedList& truth,
                     const serving::RankedList& got) {
  if (truth.empty()) return 1.0;
  std::set<uint32_t> truth_ids;
  for (const auto& [id, s] : truth) truth_ids.insert(id);
  size_t hit = 0;
  for (const auto& [id, s] : got) hit += truth_ids.count(id);
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

template <typename Fn>
double TimeSeconds(Fn&& fn) {
  const auto t0 = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

struct SweepPoint {
  size_t nlist = 0;
  size_t nprobe = 0;
  double recall = 0.0;
  double qps = 0.0;        // from the median index pass
  double brute_qps = 0.0;  // from the median interleaved brute-force pass
  size_t memory_bytes = 0;      // whole-index residency
  size_t list_bytes = 0;        // list payload only (the 4x story)
  bool full_probe = false;
  bool bit_identical = true;    // vs oracle; evaluated only at full probe
  bool rerank_exact = true;     // equals the rerank_k = size() answer
};

/// nprobe values for one nlist: powers of two up to nlist, nlist included.
std::vector<size_t> NprobeSweep(size_t nlist) {
  std::vector<size_t> probes;
  for (size_t p = 1; p < nlist; p *= 2) probes.push_back(p);
  probes.push_back(nlist);
  return probes;
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) write_json = true;
  }
  const int repeats = Repeats();

  std::printf(
      "SQ8 IVF recall/QPS sweep: %zu services in %zu clusters, dim %zu, "
      "%zu queries, recall@%zu vs the brute-force oracle.\n",
      kNumServices, kNumClusters, kDim, kNumQueries, kTopK);

  core::Rng rng(kSeed);
  const core::Matrix catalog = MakeCatalog(&rng);
  const core::Matrix queries = MakeQueries(catalog, &rng);

  // Brute-force oracle: ground truth for recall and the byte-equality
  // reference for the full-probe gate.
  std::vector<serving::RankedList> truth(kNumQueries);
  for (size_t q = 0; q < kNumQueries; ++q) {
    truth[q] = serving::TopKInnerProduct(queries.row(q), kDim, catalog, kTopK);
  }

  // Times one sweep point (default rerank_k) and returns its ranked lists.
  // Every repeat runs one brute-force pass and then one index pass, so
  // both medians see the same machine state. The brute-force pass is the
  // serving scan over a panel packed here, outside the timers, as the
  // rankers pack theirs once at construction.
  const core::kernels::RowPanel panel(catalog);
  std::vector<serving::RankedList> brute_scratch(kNumQueries);
  std::vector<double> all_brute_secs;
  auto run_point = [&](const serving::IvfIndex& index, size_t nprobe,
                       std::vector<serving::RankedList>* results,
                       SweepPoint* p) {
    std::vector<double> brute_secs, index_secs;
    for (int rep = 0; rep < repeats; ++rep) {
      brute_secs.push_back(TimeSeconds([&] {
        for (size_t q = 0; q < kNumQueries; ++q) {
          brute_scratch[q] =
              core::kernels::TopKDot(queries.row(q), panel, kTopK);
        }
      }));
      index_secs.push_back(TimeSeconds([&] {
        for (size_t q = 0; q < kNumQueries; ++q) {
          (*results)[q] = index.Query(queries.row(q), kTopK, nprobe);
        }
      }));
    }
    all_brute_secs.insert(all_brute_secs.end(), brute_secs.begin(),
                          brute_secs.end());
    p->brute_qps = static_cast<double>(kNumQueries) / Median(brute_secs);
    p->qps = static_cast<double>(kNumQueries) / Median(index_secs);
  };

  std::vector<SweepPoint> sweep;
  bool oracle_gate_ok = true;
  bool rerank_gate_ok = true;
  double best_iso_speedup = 0.0;   // best sq8/brute QPS ratio at iso-recall
  std::vector<double> iso_speedups;  // every point's ratio at iso-recall
  double storage_ratio = 0.0;      // float row bytes / sq8 list bytes
  for (size_t nlist : {size_t{64}, size_t{128}, size_t{256}}) {
    serving::RetrievalConfig cfg;  // rerank_k 0 = max(4k, 32)
    cfg.nlist = nlist;
    const serving::IvfIndex index = serving::IvfIndex::Build(catalog, cfg);
    storage_ratio = static_cast<double>(kNumServices * kDim * sizeof(float)) /
                    static_cast<double>(index.ListStorageBytes());

    std::vector<serving::RankedList> results(kNumQueries);
    for (size_t nprobe : NprobeSweep(nlist)) {
      SweepPoint p;
      p.nlist = nlist;
      p.nprobe = nprobe;
      p.full_probe = nprobe == nlist;
      p.memory_bytes = index.MemoryBytes();
      p.list_bytes = index.ListStorageBytes();
      run_point(index, nprobe, &results, &p);
      double recall = 0.0;
      for (size_t q = 0; q < kNumQueries; ++q) {
        recall += RecallAgainst(truth[q], results[q]);
        if (p.full_probe && results[q] != truth[q]) p.bit_identical = false;
        // The re-rank exactness contract, checked at EVERY point: the
        // default depth must reproduce the re-score-everything answer.
        const serving::RankedList exact = index.Query(
            queries.row(q), kTopK, nprobe, /*rerank_k=*/index.size());
        if (results[q] != exact) p.rerank_exact = false;
      }
      p.recall = recall / static_cast<double>(kNumQueries);
      if (p.full_probe && !p.bit_identical) oracle_gate_ok = false;
      if (!p.rerank_exact) rerank_gate_ok = false;
      if (p.recall >= kIsoRecallFloor) {
        best_iso_speedup = std::max(best_iso_speedup, p.qps / p.brute_qps);
        iso_speedups.push_back(p.qps / p.brute_qps);
      }
      sweep.push_back(p);
    }
  }
  const double brute_qps =
      static_cast<double>(kNumQueries) / Median(all_brute_secs);
  const double min_iso_speedup =
      iso_speedups.empty()
          ? 0.0
          : *std::min_element(iso_speedups.begin(), iso_speedups.end());
  const double median_iso_speedup =
      iso_speedups.empty() ? 0.0 : Median(iso_speedups);
  std::printf(
      "Brute-force scan: %.0f QPS (single thread; median of the %zu passes "
      "interleaved with the sweep).\n",
      brute_qps, all_brute_secs.size());

  core::Table t({"nlist", "nprobe", "recall@10", "QPS", "brute QPS",
                 "vs brute", "list MiB", "gate"});
  for (const SweepPoint& p : sweep) {
    std::string gate = "-";
    if (p.full_probe) gate = p.bit_identical ? "exact" : "DIVERGED";
    if (!p.rerank_exact) gate = "RERANK-DIVERGED";
    t.AddRow({core::StrFormat("%zu", p.nlist),
              core::StrFormat("%zu", p.nprobe),
              core::StrFormat("%.4f", p.recall),
              core::StrFormat("%.0f", p.qps),
              core::StrFormat("%.0f", p.brute_qps),
              core::StrFormat("%.2fx", p.qps / p.brute_qps),
              core::StrFormat("%.2f",
                              static_cast<double>(p.list_bytes) / 1048576.0),
              gate});
  }
  std::fputs(t.ToAscii().c_str(), stdout);
  std::printf(
      "SQ8 list storage: %.2fx below float rows; best iso-recall (>= %.2f) "
      "speedup over brute force: %.2fx (min %.2fx, median %.2fx over %zu "
      "points).\n",
      storage_ratio, kIsoRecallFloor, best_iso_speedup, min_iso_speedup,
      median_iso_speedup, iso_speedups.size());

  if (write_json) {
    const size_t hw =
        std::max<size_t>(1, std::thread::hardware_concurrency());
    std::string json = core::StrFormat(
        "{\n  \"benchmark\": \"retrieval_recall\",\n"
        "  \"hardware\": {\"cpu_model\": \"%s\", \"nproc\": %zu},\n"
        "  \"repeats\": %d,\n"
        "  \"num_services\": %zu,\n  \"num_clusters\": %zu,\n"
        "  \"dim\": %zu,\n  \"num_queries\": %zu,\n  \"top_k\": %zu,\n"
        "  \"brute_force_qps\": %.1f,\n"
        "  \"sq8_list_storage_ratio\": %.2f,\n"
        "  \"sq8_iso_recall_speedup_vs_brute\": %.2f,\n"
        "  \"sq8_iso_recall_speedup_min\": %.2f,\n"
        "  \"sq8_iso_recall_speedup_median\": %.2f,\n"
        "  \"sq8_iso_recall_points\": %zu,\n  \"sweep\": [\n",
        CpuModel().c_str(), hw, repeats, kNumServices, kNumClusters, kDim,
        kNumQueries, kTopK, brute_qps, storage_ratio, best_iso_speedup,
        min_iso_speedup, median_iso_speedup, iso_speedups.size());
    for (size_t i = 0; i < sweep.size(); ++i) {
      const SweepPoint& p = sweep[i];
      json += core::StrFormat(
          "    {\"nlist\": %zu, \"nprobe\": %zu, "
          "\"recall_at_10\": %.4f, \"qps\": %.1f, \"brute_qps\": %.1f, "
          "\"speedup_vs_brute\": %.2f, \"index_memory_bytes\": %zu, "
          "\"list_storage_bytes\": %zu, \"rerank_exact\": %s",
          p.nlist, p.nprobe, p.recall, p.qps, p.brute_qps,
          p.qps / p.brute_qps,
          p.memory_bytes, p.list_bytes, p.rerank_exact ? "true" : "false");
      // Omitted where not evaluated — a non-full-probe row simply has no
      // bit-identity verdict.
      if (p.full_probe) {
        json += core::StrFormat(", \"full_probe_bit_identical\": %s",
                                p.bit_identical ? "true" : "false");
      }
      json += core::StrFormat("}%s\n", i + 1 == sweep.size() ? "" : ",");
    }
    json += "  ]\n}\n";
    std::FILE* f = std::fopen("BENCH_retrieval.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_retrieval.json\n");
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("Wrote BENCH_retrieval.json\n");
  }

  bool ok = true;
  if (!oracle_gate_ok) {
    std::fprintf(stderr,
                 "FULL-PROBE GATE FAILED: nprobe == nlist diverged from the "
                 "brute-force oracle\n");
    ok = false;
  }
  if (!rerank_gate_ok) {
    std::fprintf(stderr,
                 "RERANK EXACTNESS GATE FAILED: the default re-rank depth "
                 "diverged from re-scoring every probed candidate at some "
                 "sweep point\n");
    ok = false;
  }
  if (storage_ratio < kStorageFloor) {
    std::fprintf(stderr,
                 "STORAGE GATE FAILED: SQ8 list storage only %.2fx below "
                 "float rows (want >= %.1fx)\n",
                 storage_ratio, kStorageFloor);
    ok = false;
  }
  if (!kSanitized && best_iso_speedup < kSpeedupFloor) {
    std::fprintf(stderr,
                 "ISO-RECALL SPEEDUP GATE FAILED: best SQ8 speedup over "
                 "brute force %.2fx < %.2fx at recall >= %.2f\n",
                 best_iso_speedup, kSpeedupFloor, kIsoRecallFloor);
    ok = false;
  }
  if (!ok) return 1;
  std::printf(
      "Gates passed: full-probe bit-identity, re-rank exactness at every "
      "point, %.2fx storage%s.\n",
      storage_ratio,
      kSanitized ? " (speedup gate skipped under sanitizer)"
                 : core::StrFormat(", %.2fx iso-recall speedup",
                                   best_iso_speedup)
                       .c_str());
  return 0;
}
