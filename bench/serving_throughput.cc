// Serving throughput & latency of the batched online path (DESIGN.md §5f):
// QPS and p50/p99 per-request latency of BatchRanker over two workloads —
// the plain EmbeddingRanker (pure top-K scoring, embarrassingly parallel)
// and the full ResilientRanker degradation chain under a fault profile
// (sequenced resolve phase + scoring outside the lock) — swept over thread
// counts, with every threaded run checked bit-identical to the serial pass;
// the tool exits 1, naming the workload and thread count, if any sweep
// point diverges.
//
// `serving_throughput --json` additionally writes the sweep to
// BENCH_serving.json in the working directory. Speedups are
// hardware-dependent: on a multi-core box the scoring-dominated workloads
// should clear 2x at 4 threads; a single-core container reports ~1x.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "core/table.h"
#include "serving/batch_ranker.h"
#include "serving/fault_injector.h"
#include "serving/ranking_service.h"
#include "serving/resilient_ranker.h"

using namespace garcia;

namespace {

constexpr size_t kNumQueries = 4000;
constexpr size_t kNumServices = 20000;
constexpr size_t kDim = 64;
constexpr size_t kTopK = 10;
constexpr size_t kNumRequests = 4000;
constexpr uint64_t kSeed = 1234;
constexpr int kRepeats = 3;

/// Thread counts for the sweep: 0 = the serial reference path.
std::vector<size_t> SweepThreadCounts() {
  std::vector<size_t> counts = {0, 2, 4, 8};
  const size_t hw =
      static_cast<size_t>(std::max(1u, std::thread::hardware_concurrency()));
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

struct SweepPoint {
  size_t threads = 0;
  double qps = 0.0;
  double p50_micros = 0.0;
  double p99_micros = 0.0;
  bool bit_identical = true;  // vs the serial pass
};

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(
      v.size() - 1, static_cast<size_t>(p * static_cast<double>(v.size())));
  return v[idx];
}

/// Runs the request stream `kRepeats` times through a fresh BatchRanker
/// (resetting the ranker's run state each time) and keeps the fastest
/// repeat's QPS and latency profile.
SweepPoint RunSweepPoint(const std::shared_ptr<const serving::Ranker>& ranker,
                         const serving::FaultProfile* profile,
                         const std::vector<serving::ServeRequest>& requests,
                         size_t threads,
                         const std::vector<serving::RankedList>* reference,
                         std::vector<serving::RankedList>* results_out) {
  serving::ServeConfig serve;
  serve.num_threads = threads;
  serving::BatchRanker batch(ranker, serve);
  SweepPoint point;
  point.threads = threads;
  std::vector<serving::RankedList> results;
  std::vector<double> latencies;
  double best_secs = 0.0;
  for (int rep = 0; rep < kRepeats; ++rep) {
    ranker->PrepareForRun(profile, kSeed);
    batch.Reset();
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<serving::RankedList> rep_results =
        batch.RankBatch(requests, &latencies);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (rep == 0 || secs < best_secs) {
      best_secs = secs;
      point.qps = static_cast<double>(requests.size()) / secs;
      point.p50_micros = Percentile(latencies, 0.50);
      point.p99_micros = Percentile(latencies, 0.99);
    }
    if (rep == 0) {
      results = std::move(rep_results);
    } else if (rep_results != results) {
      point.bit_identical = false;  // non-deterministic across repeats
    }
  }
  if (reference != nullptr && results != *reference) {
    point.bit_identical = false;
  }
  if (results_out != nullptr) *results_out = std::move(results);
  return point;
}

struct WorkloadResult {
  std::string name;
  std::vector<SweepPoint> sweep;
};

WorkloadResult RunWorkload(const std::string& name,
                           const std::shared_ptr<const serving::Ranker>& ranker,
                           const serving::FaultProfile* profile,
                           const std::vector<serving::ServeRequest>& requests) {
  WorkloadResult out;
  out.name = name;
  std::vector<serving::RankedList> serial_results;
  for (size_t threads : SweepThreadCounts()) {
    if (threads == 0) {
      out.sweep.push_back(RunSweepPoint(ranker, profile, requests, threads,
                                        nullptr, &serial_results));
    } else {
      out.sweep.push_back(RunSweepPoint(ranker, profile, requests, threads,
                                        &serial_results, nullptr));
    }
  }
  return out;
}

void PrintTable(const WorkloadResult& w) {
  std::printf("\nWorkload: %s\n", w.name.c_str());
  core::Table t({"Threads", "QPS", "p50 (us)", "p99 (us)", "Speedup",
                 "Bit-identical"});
  const double serial_qps = w.sweep.front().qps;
  for (const SweepPoint& p : w.sweep) {
    t.AddRow({p.threads == 0 ? "serial" : core::StrFormat("%zu", p.threads),
              core::StrFormat("%.0f", p.qps),
              core::StrFormat("%.1f", p.p50_micros),
              core::StrFormat("%.1f", p.p99_micros),
              core::StrFormat("%.2fx", p.qps / serial_qps),
              p.bit_identical ? "yes" : "NO"});
  }
  std::fputs(t.ToAscii().c_str(), stdout);
}

std::string WorkloadJson(const WorkloadResult& w, bool last) {
  const double serial_qps = w.sweep.front().qps;
  std::string json =
      core::StrFormat("    {\"workload\": \"%s\", \"sweep\": [", w.name.c_str());
  for (size_t i = 0; i < w.sweep.size(); ++i) {
    const SweepPoint& p = w.sweep[i];
    json += core::StrFormat(
        "%s{\"threads\": %zu, \"qps\": %.1f, \"p50_micros\": %.2f, "
        "\"p99_micros\": %.2f, \"speedup\": %.2f, \"bit_identical\": %s}",
        i == 0 ? "" : ", ", p.threads, p.qps, p.p50_micros, p.p99_micros,
        p.qps / serial_qps, p.bit_identical ? "true" : "false");
  }
  json += core::StrFormat("]}%s\n", last ? "" : ",");
  return json;
}

}  // namespace

int main(int argc, char** argv) {
  bool write_json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) write_json = true;
  }

  std::printf(
      "Serving throughput: batched online path over %zu requests, "
      "%zu services, dim %zu, top-%zu.\n",
      kNumRequests, kNumServices, kDim, kTopK);

  core::Rng rng(kSeed);
  core::Matrix query_emb = core::Matrix::Randn(kNumQueries, kDim, &rng);
  core::Matrix service_emb = core::Matrix::Randn(kNumServices, kDim, &rng);

  // Request stream: uniform queries, fixed k. Drawn once; every sweep point
  // replays the identical stream.
  std::vector<serving::ServeRequest> requests(kNumRequests);
  for (auto& r : requests) {
    r.query = static_cast<uint32_t>(rng.UniformInt(uint64_t{kNumQueries}));
    r.k = kTopK;
  }

  // Workload 1: plain embedding ranker — pure top-K scoring, no shared
  // mutable state. The upper bound on request-level parallelism.
  auto embedding = std::make_shared<serving::EmbeddingRanker>(
      serving::EmbeddingStore(query_emb), serving::EmbeddingStore(service_emb));
  WorkloadResult w_embed =
      RunWorkload("embedding", embedding, nullptr, requests);
  PrintTable(w_embed);

  // Workload 2: the full degradation chain under a 10% fault profile — the
  // sequenced resolve phase serializes fault draws and breaker updates, the
  // dominant scoring cost still overlaps across requests.
  auto resilient = std::make_shared<serving::ResilientRanker>(
      serving::EmbeddingStore(query_emb), serving::EmbeddingStore(service_emb));
  {
    // Stale snapshot: the oldest 80% of the id space.
    const size_t keep = kNumQueries * 8 / 10;
    core::Matrix stale(keep, kDim);
    for (size_t i = 0; i < keep; ++i) stale.CopyRowFrom(query_emb, i, i);
    resilient->SetStaleSnapshot(serving::EmbeddingStore(std::move(stale)));
    // Cold-start tail ids anchor onto a head query.
    std::vector<int32_t> anchors(kNumQueries, -1);
    for (size_t q = keep; q < kNumQueries; ++q) {
      anchors[q] = static_cast<int32_t>(q % 100);
    }
    resilient->SetHeadAnchors(std::move(anchors));
  }
  serving::FaultProfile profile;
  profile.seed = 97;
  profile.lookup_failure_rate = 0.10;
  profile.missing_id_rate = 0.05;
  profile.bit_flip_rate = 0.025;
  profile.latency_spike_rate = 0.025;
  WorkloadResult w_res =
      RunWorkload("resilient_chain", resilient, &profile, requests);
  PrintTable(w_res);

  std::printf(
      "\nParallel runs are bit-identical to serial by construction; speedup "
      "is hardware-dependent (hardware_concurrency here: %u).\n",
      std::thread::hardware_concurrency());

  if (write_json) {
    std::string json = core::StrFormat(
        "{\n  \"benchmark\": \"serving_throughput\",\n"
        "  \"hardware_concurrency\": %u,\n"
        "  \"num_requests\": %zu,\n  \"num_services\": %zu,\n"
        "  \"dim\": %zu,\n  \"top_k\": %zu,\n  \"workloads\": [\n",
        std::thread::hardware_concurrency(), kNumRequests, kNumServices, kDim,
        kTopK);
    json += WorkloadJson(w_embed, false);
    json += WorkloadJson(w_res, true);
    json += "  ]\n}\n";
    std::FILE* f = std::fopen("BENCH_serving.json", "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write BENCH_serving.json\n");
      return 1;
    }
    std::fputs(json.c_str(), f);
    std::fclose(f);
    std::printf("Wrote BENCH_serving.json\n");
  }

  bool ok = true;
  for (const WorkloadResult* w : {&w_embed, &w_res}) {
    for (const SweepPoint& p : w->sweep) {
      if (p.bit_identical) continue;
      const std::string where = p.threads == 0
                                    ? std::string("serial (across repeats)")
                                    : core::StrFormat("%zu threads", p.threads);
      std::fprintf(stderr,
                   "BIT-IDENTITY GATE FAILED: workload %s diverged from the "
                   "serial pass at %s\n",
                   w->name.c_str(), where.c_str());
      ok = false;
    }
  }
  return ok ? 0 : 1;
}
