// GARCIA lifecycle benchmark: one round of scenario -> Fit ->
// export / dumps / index -> evaluation -> serving, through the public
// library API only.
//
//   lifecycle_bench --workload NAME --seed N --seconds S --trace 0|1
//                   --work-dir DIR [--smoke] [--trace-out FILE]
//
// Prints human-readable lines, then as its last stdout line one JSON object
// with the round's raw measurements ("round"), its per-layer metrics when
// traced ("layers"), provenance, and the check counts. Each round runs in a
// fresh process, so every Fit pays the cold-process cost a training job
// pays; perfbench/run.py runs the rounds and reports medians over them.
// Exits 1 when any output check fails. Workloads, metrics and the
// layer-to-end-to-end map are documented in README.md.

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "data/presets.h"
#include "data/scenario.h"
#include "models/common.h"
#include "models/contrastive.h"
#include "models/garcia_model.h"
#include "serving/batch_ranker.h"
#include "serving/embedding_store.h"
#include "serving/fault_injector.h"
#include "serving/ivf_index.h"
#include "serving/ranking_service.h"
#include "serving/resilient_ranker.h"
#include "serving/serving_health.h"
#include "train/checkpoint.h"
#include "trace.h"

using namespace garcia;
using perfbench::NowMicros;
using perfbench::SampleUsage;
using perfbench::Span;
using perfbench::SpanRecord;
using perfbench::Tracer;

namespace {

constexpr size_t kTopK = 10;
constexpr size_t kSetupReps = 3;      // setups per round
constexpr size_t kClosedChunks = 8;   // closed-loop rate samples per pass
constexpr size_t kWindow = 1000;      // open-loop requests per latency window
constexpr size_t kServeWorkers = 2;   // + the generator thread = 3 < nproc
constexpr size_t kOracleSample = 500; // fresh answers checked against TopK
constexpr size_t kReplay = 1000;      // single-thread replays (traced only)
constexpr size_t kDrill = 1000;       // popularity-tier answers held per round

// ------------------------------------------------------------- workloads

enum class Traffic { kUniformAll, kUniformTail, kZipfExposure };

struct WorkloadSpec {
  const char* name;
  // Scenario: the Sep. A preset at `scale`, catalog raised to num_services.
  double scale;
  size_t num_services;  // 0 = the preset's own
  // Training schedule.
  size_t pretrain_epochs;
  size_t finetune_epochs;
  size_t max_batches;
  size_t fanout;
  size_t threads;
  uint64_t checkpoint_every;  // 0 = no checkpoints
  // Serving.
  Traffic traffic;
  bool faults;
  bool index;
  double rate_qps;       // frozen open-loop rate
  double open_share;     // open-loop pass length as a share of --seconds
  size_t closed_passes;  // closed-loop replays of the stream per round
  double auc_floor;    // overall_auc must exceed this
};

// The frozen open-loop rates are part of the benchmark definition; a change
// that speeds serving up shows as lower latency at the same rate.
const WorkloadSpec kWorkloads[] = {
    {"fullgraph_train", 0.25, 0, 1, 3, 20, 0, 4, 0, Traffic::kUniformAll,
     false, false, 20000.0, 0.07, 10, 0.6},
    {"sampled_train", 1.0, 20000, 1, 3, 20, 8, 0, 10, Traffic::kUniformTail,
     false, false, 1200.0, 0.25, 1, 0.6},
    {"zipf_serve", 1.0, 20000, 1, 2, 20, 8, 0, 0, Traffic::kZipfExposure,
     true, true, 4000.0, 0.4, 1, 0.55},
};

/// Tiny sizes for the benchmark's own tests: every phase and check runs in
/// seconds.
WorkloadSpec Smoke(WorkloadSpec w) {
  w.scale = 0.1;
  if (w.num_services != 0) w.num_services = 1500;
  w.pretrain_epochs = 1;
  w.finetune_epochs = 1;
  w.max_batches = 2;
  if (w.checkpoint_every != 0) w.checkpoint_every = 1;
  w.rate_qps = 2000.0;
  w.auc_floor = 0.3;
  return w;
}

/// The serving_throughput fault profile: 10% lookup failures, 5% missing
/// ids, 2.5% bit flips, 2.5% latency spikes, with its own fault seed. The
/// fault draws stay keyed by that seed rather than the workload seed: the
/// breaker opens only a few times per run and each opening moves fresh_frac
/// by ~3 points, so per-seed fault streams spread fresh_frac by ~12%.
serving::FaultProfile ThroughputProfile() {
  serving::FaultProfile p;
  p.seed = 97;
  p.lookup_failure_rate = 0.10;
  p.missing_id_rate = 0.05;
  p.bit_flip_rate = 0.025;
  p.latency_spike_rate = 0.025;
  return p;
}

// -------------------------------------------------------------- helpers

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p * static_cast<double>(v.size()));
  const size_t idx = static_cast<size_t>(std::max(1.0, rank)) - 1;
  return v[std::min(idx, v.size() - 1)];
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

/// Highest of a few standard percentiles with >= 10 samples beyond it.
double HighestSupportedPercentile(size_t n) {
  for (double p : {0.9999, 0.999, 0.99, 0.9}) {
    if (static_cast<double>(n) * (1.0 - p) >= 10.0) return p;
  }
  return 0.5;
}

bool AllFinite(const core::Matrix& m) {
  for (size_t i = 0; i < m.size(); ++i) {
    if (!std::isfinite(m.data()[i])) return false;
  }
  return !m.empty();
}

bool SameBytes(const core::Matrix& a, const core::Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/// FNV-1a over raw bytes (answer and embedding fingerprints).
uint64_t HashBytes(const void* data, size_t size,
                   uint64_t h = 1469598103934665603ull) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

uint64_t HashList(const serving::RankedList& list) {
  uint64_t h = HashBytes(nullptr, 0);
  for (const auto& [id, score] : list) {
    h = HashBytes(&id, sizeof(id), h);
    h = HashBytes(&score, sizeof(score), h);
  }
  return h;
}

std::string ReadCpuModel() {
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

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

/// Ordered name -> (value, unit, sample count) list.
struct Metric {
  std::string name;
  double value;
  std::string unit;
  size_t samples;
};

class MetricSet {
 public:
  void Add(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics_.push_back({name, value, unit, samples});
  }
  std::string Json() const {
    std::string json = "{";
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      json += (i ? ", " : "") + JsonString(m.name) +
              ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) +
              ", \"samples\": " + std::to_string(m.samples) + "}";
    }
    return json + "}";
  }

 private:
  std::vector<Metric> metrics_;
};

/// Counts checked operations; a failed one is a wrong or missing answer.
struct Checks {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> notes;

  void Expect(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (notes.size() < 20) notes.push_back(what);
    }
  }
};

// --------------------------------------------------------------- setup

struct Tiers {
  std::vector<int32_t> head_anchor_of;
  std::shared_ptr<const serving::TextRanker> text;
  std::shared_ptr<const serving::PopularityRanker> popularity;
};

Tiers BuildTiers(const data::Scenario& s) {
  Tiers t;
  t.head_anchor_of =
      models::AnchorHeadOf(models::MineKtclAnchors(s), s.num_queries());
  std::vector<std::string> names;
  std::vector<double> mau;
  for (const auto& meta : s.services) {
    names.push_back(meta.name);
    mau.push_back(static_cast<double>(meta.mau));
  }
  t.text = std::make_shared<serving::TextRanker>(s.query_text, names);
  t.popularity = std::make_shared<serving::PopularityRanker>(mau);
  return t;
}

/// The scenario keeps the preset's own seeds: its AUCs are deterministic,
/// so a numerics change shows exactly instead of hiding in the spread
/// between scenarios (tail_auc IQR was 7-14% of its median over 5 seeded
/// scenarios).
data::ScenarioConfig ScenarioFor(const WorkloadSpec& w) {
  data::ScenarioConfig cfg = data::PresetConfig(data::DatasetId::kSepA, w.scale);
  if (w.num_services != 0) cfg.num_services = w.num_services;
  return cfg;
}

/// Steps the Fit schedule runs (GarciaModel: max(1, max_batches / 2)
/// pre-training steps per epoch; fine-tuning capped at max_batches).
size_t ScheduledSteps(const WorkloadSpec& w, size_t train_examples,
                      size_t batch_size) {
  const size_t pre = std::max<size_t>(1, w.max_batches / 2);
  const size_t per_epoch = (train_examples + batch_size - 1) / batch_size;
  return w.pretrain_epochs * pre +
         w.finetune_epochs * std::min(per_epoch, w.max_batches);
}

// --------------------------------------------------------------- serving

/// Records the tier that answered each request index of the current pass.
class TierRecorder : public serving::Ranker {
 public:
  TierRecorder(std::shared_ptr<const serving::ResilientRanker> inner,
               size_t num_requests)
      : inner_(std::move(inner)), tiers_(num_requests) {}

  serving::RankedList Rank(uint32_t query, size_t k) const override {
    return inner_->Rank(query, k);
  }
  serving::RankedList RankAt(uint64_t index, uint32_t query,
                             size_t k) const override {
    serving::ServingTier tier = serving::ServingTier::kPopularity;
    serving::RankedList out = inner_->RankAt(index, query, k, &tier);
    tiers_[index] = tier;  // distinct index per call: no two writers
    return out;
  }
  void PrepareForRun(const serving::FaultProfile* profile,
                     uint64_t seed) const override {
    inner_->PrepareForRun(profile, seed);
  }
  const std::vector<serving::ServingTier>& tiers() const { return tiers_; }

 private:
  std::shared_ptr<const serving::ResilientRanker> inner_;
  mutable std::vector<serving::ServingTier> tiers_;
};

std::vector<serving::ServeRequest> MakeRequests(const WorkloadSpec& w,
                                                const data::Scenario& s,
                                                size_t n, uint64_t seed) {
  core::Rng rng(serving::PerRequestSeed(seed, 6));
  std::vector<uint32_t> pool;
  std::unique_ptr<core::AliasSampler> zipf;
  switch (w.traffic) {
    case Traffic::kUniformAll:
      for (uint32_t q = 0; q < s.num_queries(); ++q) pool.push_back(q);
      break;
    case Traffic::kUniformTail:
      pool = s.split.tail_queries;
      break;
    case Traffic::kZipfExposure: {
      std::vector<double> weights(s.query_exposure.begin(),
                                  s.query_exposure.end());
      zipf = std::make_unique<core::AliasSampler>(weights);
      break;
    }
  }
  std::vector<serving::ServeRequest> reqs(n);
  for (auto& r : reqs) {
    r.k = kTopK;
    r.query = zipf != nullptr
                  ? static_cast<uint32_t>(zipf->Sample(&rng))
                  : pool[static_cast<size_t>(rng.UniformInt(pool.size()))];
  }
  return reqs;
}

struct PassResult {
  std::vector<uint64_t> hashes;
  std::vector<serving::ServingTier> tiers;
  std::vector<double> service_us;  // per request, worker-side
  std::vector<double> latency_us;  // open loop: from due time to done
  std::vector<double> queue_us;    // open loop: from due time to start
  std::vector<double> lag_us;      // open loop: generator lateness
  std::vector<double> chunk_qps;   // closed loop
  serving::ServingHealth health;
};

void CheckAnswers(const std::vector<serving::RankedList>& answers,
                  size_t catalog, Checks* checks, PassResult* pass) {
  for (const serving::RankedList& a : answers) {
    bool ok = a.size() == std::min(kTopK, catalog);
    for (size_t j = 0; ok && j < a.size(); ++j) {
      ok = a[j].first < catalog && std::isfinite(a[j].second) &&
           (j == 0 || a[j - 1].second >= a[j].second);
    }
    checks->Expect(ok, "malformed answer");
    pass->hashes.push_back(HashList(a));
  }
}

std::string Line(const char* fmt, ...) __attribute__((format(printf, 1, 2)));
std::string Line(const char* fmt, ...) {
  char buf[512];
  va_list ap;
  va_start(ap, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, ap);
  va_end(ap);
  return buf;
}

/// Closed loop: the whole stream through the facade at saturation,
/// `passes` times (PrepareForRun + Reset before each; every replay must
/// return the first pass's answers). Each pass is submitted in
/// kClosedChunks consecutive RankBatch calls (one index stream) to give
/// serving.closed_loop_qps its samples; answers are held until the pass ends, as a
/// caller holding a batch's results would.
PassResult ClosedLoop(serving::BatchRanker* batch, const TierRecorder& rec,
                      const serving::ResilientRanker& ranker,
                      const std::vector<serving::ServeRequest>& reqs,
                      const serving::FaultProfile* profile, uint64_t run_seed,
                      size_t passes, size_t catalog, Checks* checks,
                      std::vector<serving::RankedList>* kept) {
  PassResult pass;
  const size_t chunk = (reqs.size() + kClosedChunks - 1) / kClosedChunks;
  for (size_t replay = 0; replay < passes; ++replay) {
    rec.PrepareForRun(profile, run_seed);
    batch->Reset();
    std::vector<std::vector<serving::RankedList>> answers;
    std::vector<double> service;
    for (size_t lo = 0; lo < reqs.size(); lo += chunk) {
      const std::vector<serving::ServeRequest> part(
          reqs.begin() + static_cast<long>(lo),
          reqs.begin() + static_cast<long>(std::min(reqs.size(), lo + chunk)));
      std::vector<double> lat;
      const double t0 = NowMicros();
      answers.push_back(batch->RankBatch(part, &lat));
      pass.chunk_qps.push_back(static_cast<double>(part.size()) * 1e6 /
                               (NowMicros() - t0));
      service.insert(service.end(), lat.begin(), lat.end());
    }
    if (replay > 0) {
      size_t i = 0, differ = 0;
      for (const auto& part : answers) {
        for (const auto& a : part) differ += HashList(a) != pass.hashes[i++];
      }
      checks->Expect(differ == 0,
                     Line("closed-loop replay %zu differs from the first pass "
                          "on %zu requests", replay, differ));
      continue;
    }
    pass.health = ranker.health();
    pass.tiers = rec.tiers();
    pass.service_us = std::move(service);
    for (const auto& part : answers) CheckAnswers(part, catalog, checks, &pass);
    for (auto& part : answers) {
      for (auto& a : part) kept->push_back(std::move(a));
    }
  }
  return pass;
}

/// Open loop: this thread submits request i at t0 + i / rate through
/// RankBatchAsync; latency counts from the due time.
PassResult OpenLoop(serving::BatchRanker* batch, const TierRecorder& rec,
                    const serving::ResilientRanker& ranker,
                    const std::vector<serving::ServeRequest>& reqs,
                    const serving::FaultProfile* profile, uint64_t run_seed,
                    double rate, size_t catalog, Checks* checks) {
  PassResult pass;
  rec.PrepareForRun(profile, run_seed);
  batch->Reset();
  const size_t n = reqs.size();
  std::vector<std::vector<serving::RankedList>> answers(n);
  std::vector<double> due(n), done(n, 0.0), service(n, 0.0);
  pass.lag_us.resize(n);
  const double interval = 1e6 / rate;
  const double t0 = NowMicros() + 1000.0;
  for (size_t i = 0; i < n; ++i) {
    due[i] = t0 + interval * static_cast<double>(i);
    double now = NowMicros();
    // Yielding spin: a timed sleep can wake milliseconds late, and a
    // plain spin would starve a worker that shares this CPU.
    while ((now = NowMicros()) < due[i]) std::this_thread::yield();
    pass.lag_us[i] = now - due[i];
    batch->RankBatchAsync({reqs[i]}, &answers[i],
                          [&done, &service, i](size_t, double micros) {
                            service[i] = micros;
                            done[i] = NowMicros();
                          });
  }
  batch->Drain();
  pass.health = ranker.health();
  pass.tiers = rec.tiers();
  for (size_t i = 0; i < n; ++i) {
    pass.latency_us.push_back(done[i] - due[i]);
    pass.queue_us.push_back(done[i] - service[i] - due[i]);
  }
  pass.service_us = std::move(service);
  for (const auto& a : answers) CheckAnswers(a, catalog, checks, &pass);
  return pass;
}

/// Per-window percentile `p` over consecutive kWindow-request windows; the
/// run reports the median window, so one stall moves one window.
std::vector<double> WindowPercentiles(const std::vector<double>& v, double p) {
  const size_t nwin = std::max<size_t>(1, v.size() / kWindow);
  std::vector<double> per;
  for (size_t w = 0; w < nwin; ++w) {
    const size_t lo = w * v.size() / nwin;
    const size_t hi = (w + 1) * v.size() / nwin;
    per.push_back(Percentile(
        std::vector<double>(v.begin() + static_cast<long>(lo),
                            v.begin() + static_cast<long>(hi)),
        p));
  }
  return per;
}

/// Per-call microseconds of `fn(i)` for i in [0, n), single-threaded.
template <typename Fn>
std::vector<double> TimeCalls(size_t n, Fn&& fn) {
  std::vector<double> us;
  us.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double t0 = NowMicros();
    fn(i);
    us.push_back(NowMicros() - t0);
  }
  return us;
}


const char* kTierNames[serving::kNumServingTiers] = {
    "fresh", "stale", "anchor", "text", "popularity"};

// ------------------------------------------------------------ lifecycle

/// One round: setup -> Fit -> refresh -> evaluation -> serve.
struct RoundOutput {
  std::vector<double> setup_s;  // kSetupReps samples
  double fit_s = 0.0;
  double refresh_s = 0.0;
  double serve_s = 0.0;
  eval::SlicedMetrics quality;
  double recall = 0.0;
  size_t recall_n = 0;
  double fresh_frac = 0.0;
  size_t requests = 0;
  std::vector<double> chunk_qps;   // closed loop
  std::vector<double> window_p50;  // open loop, from due time
  std::vector<double> window_p99;
  std::vector<uint64_t> fingerprint;  // every output; rounds must agree
  MetricSet layers;                   // traced rounds only
  std::vector<std::string> report;

  double timed_s() const {
    return std::accumulate(setup_s.begin(), setup_s.end(), 0.0) + fit_s +
           refresh_s + serve_s;
  }
};

RoundOutput RunRound(const WorkloadSpec& w, uint64_t seed, double seconds,
                     const std::string& work, Tracer* tr, Checks* checks) {
  namespace fs = std::filesystem;
  RoundOutput out;
  std::error_code ec;
  fs::remove_all(work, ec);
  fs::create_directories(work);

  // ---- setup: scenario generation + fallback tiers ----
  std::unique_ptr<data::Scenario> s;
  Tiers tiers;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    Span phase(tr, "phase.setup");
    s.reset();
    {
      Span gen(tr, "data.generate");
      s = std::make_unique<data::Scenario>(
          data::GenerateScenario(ScenarioFor(w)));
    }
    {
      Span build(tr, "serving.tiers_build");
      tiers = BuildTiers(*s);
    }
    out.setup_s.push_back(phase.Stop());
  }
  checks->Expect(!s->train.empty() && !s->test.empty() &&
                     !s->split.tail_queries.empty(),
                 "scenario has no train/test examples or no tail queries");

  // ---- fit ----
  models::TrainConfig tc;
  tc.pretrain_epochs = w.pretrain_epochs;
  tc.finetune_epochs = w.finetune_epochs;
  tc.max_batches_per_epoch = w.max_batches;
  tc.sample_fanout = w.fanout;
  tc.num_threads = w.threads;
  const std::string ckpt_dir = work + "/checkpoints";
  if (w.checkpoint_every != 0) {
    tc.checkpoint_dir = ckpt_dir;
    tc.checkpoint_every_steps = w.checkpoint_every;
  }
  auto model = std::make_unique<models::GarciaModel>(tc);
  {
    Span fit(tr, "models.fit");
    model->Fit(*s);
    out.fit_s = fit.Stop();
  }
  checks->Expect(std::isfinite(model->first_pretrain_loss()) &&
                     std::isfinite(model->last_pretrain_loss()) &&
                     std::isfinite(model->last_finetune_loss()),
                 "non-finite training loss");

  // ---- refresh: export, GEM2 dumps, serving stack, (index) ----
  const serving::FaultProfile profile = ThroughputProfile();
  const serving::FaultProfile* fault_profile = w.faults ? &profile : nullptr;
  core::Matrix q_emb, s_emb;
  std::shared_ptr<serving::ResilientRanker> ranker;
  std::shared_ptr<serving::IvfIndex> index;
  size_t store_bytes = 0;
  {
    Span refresh(tr, "phase.refresh");
    {
      Span exp(tr, "models.export");
      q_emb = model->ExportQueryEmbeddings(*s);
      s_emb = model->ExportServiceEmbeddings(*s);
    }
    checks->Expect(AllFinite(q_emb) && AllFinite(s_emb) &&
                       q_emb.rows() == s->num_queries() &&
                       s_emb.rows() == s->num_services(),
                   "exported embeddings are empty, mis-sized or non-finite");
    const std::string qpath = work + "/queries.gem";
    const std::string spath = work + "/services.gem";
    {
      Span save(tr, "serving.store_save");
      checks->Expect(serving::EmbeddingStore(q_emb).Save(qpath).ok() &&
                         serving::EmbeddingStore(s_emb).Save(spath).ok(),
                     "GEM2 dump save failed");
    }
    store_bytes = fs::file_size(qpath, ec) + fs::file_size(spath, ec);
    serving::EmbeddingStore q_store, s_store;
    {
      Span load(tr, "serving.store_load");
      auto q = serving::EmbeddingStore::Load(qpath);
      auto sv = serving::EmbeddingStore::Load(spath);
      const bool ok = q.ok() && sv.ok();
      checks->Expect(ok, "GEM2 dump load failed");
      if (ok) {
        q_store = std::move(q.value());
        s_store = std::move(sv.value());
      }
    }
    checks->Expect(SameBytes(q_store.matrix(), q_emb) &&
                       SameBytes(s_store.matrix(), s_emb),
                   "GEM2 round trip changed the embeddings");
    ranker = std::make_shared<serving::ResilientRanker>(std::move(q_store),
                                                        std::move(s_store));
    // Yesterday's snapshot: the oldest 80% of the query id space.
    core::Matrix stale(q_emb.rows() * 8 / 10, q_emb.cols());
    for (size_t i = 0; i < stale.rows(); ++i) stale.CopyRowFrom(q_emb, i, i);
    ranker->SetStaleSnapshot(serving::EmbeddingStore(std::move(stale)));
    ranker->SetHeadAnchors(tiers.head_anchor_of);
    ranker->SetTextFallback(tiers.text);
    ranker->SetPopularityFallback(tiers.popularity);
    if (w.index) {
      serving::RetrievalConfig rcfg;
      rcfg.mode = serving::RetrievalMode::kIvfSq8;
      const std::string ipath = work + "/services.giv";
      {
        Span build(tr, "serving.index_build");
        index = std::make_shared<serving::IvfIndex>(
            serving::IvfIndex::Build(s_emb, rcfg));
      }
      {
        Span save(tr, "serving.index_save");
        checks->Expect(index->Save(ipath).ok(), "GIV2 index save failed");
      }
      {
        Span load(tr, "serving.index_load");
        checks->Expect(ranker->LoadRetrievalIndex(ipath).ok(),
                       "GIV2 index load failed");
      }
    }
    out.refresh_s = refresh.Stop();
  }
  out.fingerprint.push_back(HashBytes(q_emb.data(), q_emb.size() * 4));
  out.fingerprint.push_back(HashBytes(s_emb.data(), s_emb.size() * 4));

  // ---- evaluation (quality check; not part of any timed metric) ----
  {
    Span ev(tr, "eval.evaluate");
    out.quality = models::EvaluateModel(model.get(), *s, s->test);
  }
  checks->Expect(out.quality.overall.auc > w.auc_floor,
                 Line("overall_auc %.4f not above floor %.2f",
                      out.quality.overall.auc, w.auc_floor));
  out.fingerprint.push_back(
      HashBytes(&out.quality.overall.auc, sizeof(double),
                HashBytes(&out.quality.tail.auc, sizeof(double))));

  // ---- serve: one stream, closed loop then open loop, then the drill ----
  const size_t n = std::max<size_t>(
      200, static_cast<size_t>(std::llround(w.rate_qps * seconds *
                                            w.open_share)));
  out.requests = n;
  const std::vector<serving::ServeRequest> reqs = MakeRequests(w, *s, n, seed);
  // The resilience layer's jitter and fault streams stay fixed (see
  // ThroughputProfile): only the request stream follows the seed.
  const uint64_t run_seed = 7;
  const size_t catalog = s->num_services();
  auto recorder = std::make_shared<TierRecorder>(ranker, n);
  PassResult closed, open;
  std::vector<serving::RankedList> closed_answers, held;
  uint64_t closed_failed = 0, open_failed = 0;
  std::vector<double> pop_us;
  {
    Span phase(tr, "phase.serve");
    serving::ServeConfig sc;
    sc.num_threads = kServeWorkers;
    serving::BatchRanker batch(recorder, sc);
    uint64_t before = checks->failed;
    {
      Span pass(tr, "serving.closed_loop");
      closed = ClosedLoop(&batch, *recorder, *ranker, reqs, fault_profile,
                          run_seed, w.closed_passes, catalog, checks,
                          &closed_answers);
    }
    closed_failed = checks->failed - before;
    before = checks->failed;
    {
      Span pass(tr, "serving.open_loop");
      open = OpenLoop(&batch, *recorder, *ranker, reqs, fault_profile,
                      run_seed, w.rate_qps, catalog, checks);
    }
    open_failed = checks->failed - before;
    // Outage drill: the terminal popularity tier answers a slice of the
    // stream directly, answers held as a batch holds them. (The chain
    // itself never reaches this tier while TextRanker, which always
    // answers, is installed.)
    {
      Span drill(tr, "serving.popularity_drill");
      pop_us = TimeCalls(kDrill, [&](size_t i) {
        held.push_back(tiers.popularity->Rank(reqs[i % n].query, kTopK));
      });
    }
    for (const serving::RankedList& a : held) {
      checks->Expect(a.size() == std::min(kTopK, catalog),
                     "popularity tier answer malformed");
    }
    out.serve_s = phase.Stop();
  }
  // Both passes replay the stream after PrepareForRun + Reset: identical
  // lists and tiers per request index.
  size_t mismatched = 0;
  for (size_t i = 0; i < n; ++i) {
    mismatched += closed.hashes[i] != open.hashes[i] ||
                  closed.tiers[i] != open.tiers[i];
  }
  checks->Expect(mismatched == 0,
                 Line("%zu of %zu requests differ between the closed- and "
                      "open-loop passes", mismatched, n));
  out.fingerprint.insert(out.fingerprint.end(), closed.hashes.begin(),
                         closed.hashes.end());

  // Fresh-tier answers against the exact TopKInnerProduct oracle.
  double recall_sum = 0.0;
  size_t oracle_mismatch = 0;
  for (size_t i = 0; i < n && out.recall_n < kOracleSample; ++i) {
    if (closed.tiers[i] != serving::ServingTier::kFresh) continue;
    const serving::RankedList truth = serving::TopKInnerProduct(
        q_emb.row(reqs[i].query), q_emb.cols(), s_emb, kTopK);
    const serving::RankedList& got = closed_answers[i];
    size_t hit = 0;
    for (const auto& [id, score] : got) {
      for (const auto& t : truth) hit += t.first == id;
    }
    recall_sum += static_cast<double>(hit) / static_cast<double>(truth.size());
    oracle_mismatch += got != truth;
    ++out.recall_n;
  }
  out.recall = out.recall_n
                   ? recall_sum / static_cast<double>(out.recall_n)
                   : 0.0;
  if (!w.index) {
    checks->Expect(out.recall_n > 0 && oracle_mismatch == 0,
                   Line("%zu of %zu brute-force answers differ from "
                        "TopKInnerProduct", oracle_mismatch, out.recall_n));
  } else {
    checks->Expect(out.recall_n > 0 && out.recall >= 0.9,
                   Line("recall@10 %.4f below 0.9", out.recall));
  }
  closed_answers.clear();
  closed_answers.shrink_to_fit();

  const serving::ServingHealth& h = closed.health;
  out.fresh_frac =
      static_cast<double>(h.served_at_tier[0]) / static_cast<double>(n);
  out.chunk_qps = closed.chunk_qps;
  out.window_p50 = WindowPercentiles(open.latency_us, 0.5);
  out.window_p99 = WindowPercentiles(open.latency_us, 0.99);

  const double top = HighestSupportedPercentile(open.latency_us.size());
  const auto [qmin, qmax] =
      std::minmax_element(closed.chunk_qps.begin(), closed.chunk_qps.end());
  out.report.push_back(Line(
      "serve: %zu requests per pass at %.0f req/s open loop; closed pass "
      "sent %zu failed %llu (chunk rates %.0f .. %.0f req/s); open pass sent "
      "%zu failed %llu",
      n, w.rate_qps, n, static_cast<unsigned long long>(closed_failed), *qmin,
      *qmax, n, static_cast<unsigned long long>(open_failed)));
  out.report.push_back(Line(
      "serve: open-loop latency over all %zu requests p50 %.1f us, p99 %.1f "
      "us, p%g %.1f us (highest with >=10 samples beyond); generator lag max "
      "%.1f us",
      open.latency_us.size(), Percentile(open.latency_us, 0.5),
      Percentile(open.latency_us, 0.99), top * 100.0,
      Percentile(open.latency_us, top),
      *std::max_element(open.lag_us.begin(), open.lag_us.end())));
  out.report.push_back(Line(
      "quality: overall_auc %.4f tail_auc %.4f head_auc %.4f; losses "
      "pretrain %.4f -> %.4f, finetune %.4f",
      out.quality.overall.auc, out.quality.tail.auc, out.quality.head.auc,
      model->first_pretrain_loss(), model->last_pretrain_loss(),
      model->last_finetune_loss()));
  if (tr == nullptr) return out;

  // ---- per-layer metrics (traced round only) ----
  MetricSet& l = out.layers;
  auto span = [tr](const char* name) -> const SpanRecord* {
    const auto found = tr->Find(name);
    return found.empty() ? nullptr : found.back();
  };
  auto span_s = [&](const char* name) {
    const SpanRecord* r = span(name);
    return r == nullptr ? 0.0 : r->seconds();
  };
  l.Add("data.generate_s", span_s("data.generate"), "s");
  l.Add("serving.tiers_build_s", span_s("serving.tiers_build"), "s");
  const SpanRecord& fit = *span("models.fit");
  l.Add("models.fit.steps",
        static_cast<double>(ScheduledSteps(w, s->train.size(), tc.batch_size)),
        "count");
  l.Add("models.fit.user_s", fit.user_s(), "s");
  l.Add("models.fit.sys_s", fit.sys_s(), "s");
  l.Add("models.fit.minflt", fit.minflt(), "count");
  l.Add("models.fit.vcsw", fit.nvcsw(), "count");
  l.Add("models.fit.ivcsw", fit.nivcsw(), "count");
  l.Add("models.fit.cpu_util", (fit.user_s() + fit.sys_s()) / fit.seconds(),
        "cores");
  l.Add("models.export_s", span_s("models.export"), "s");
  l.Add("models.export.minflt", span("models.export")->minflt(), "count");
  l.Add("eval.evaluate_s", span_s("eval.evaluate"), "s");

  // GCK1: public load + save of the newest generation Fit wrote.
  double ck_generations = 0.0, ck_bytes = 0.0;
  const std::vector<uint64_t> steps = train::ListCheckpointSteps(ckpt_dir);
  if (!steps.empty()) {
    const std::string newest =
        ckpt_dir + "/" + train::CheckpointFileName(steps.back());
    ck_generations = static_cast<double>(steps.back() / w.checkpoint_every);
    ck_bytes = static_cast<double>(fs::file_size(newest, ec));
    std::optional<train::TrainCheckpoint> ck;
    {
      Span load(tr, "train.checkpoint_load");
      auto loaded = train::LoadCheckpoint(newest);
      checks->Expect(loaded.ok(), "GCK1 load of the newest generation failed");
      if (loaded.ok()) ck = std::move(loaded.value());
    }
    if (ck.has_value()) {
      Span save(tr, "train.checkpoint_save");
      checks->Expect(train::SaveCheckpoint(work + "/probe.gck", *ck).ok(),
                     "GCK1 save failed");
    }
  }
  l.Add("train.checkpoint_generations", ck_generations, "count");
  l.Add("train.checkpoint_bytes", ck_bytes, "bytes");
  l.Add("train.checkpoint_save_s", span_s("train.checkpoint_save"), "s");
  l.Add("train.checkpoint_load_s", span_s("train.checkpoint_load"), "s");

  l.Add("serving.store_save_s", span_s("serving.store_save"), "s");
  l.Add("serving.store_load_s", span_s("serving.store_load"), "s");
  l.Add("serving.store_bytes", static_cast<double>(store_bytes), "bytes");
  l.Add("serving.index_build_s", span_s("serving.index_build"), "s");
  l.Add("serving.index_save_s", span_s("serving.index_save"), "s");
  l.Add("serving.index_load_s", span_s("serving.index_load"), "s");
  l.Add("serving.index_memory_bytes",
        static_cast<double>(h.index_memory_bytes), "bytes");

  l.Add("serving.closed_loop_qps", Median(closed.chunk_qps), "req/s",
        closed.chunk_qps.size());
  l.Add("serving.rank_us.p50", Percentile(closed.service_us, 0.5), "us", n);
  l.Add("serving.rank_us.p99", Percentile(closed.service_us, 0.99), "us", n);
  l.Add("serving.queue_us.p50", Percentile(open.queue_us, 0.5), "us", n);
  l.Add("serving.queue_us.p99", Percentile(open.queue_us, 0.99), "us", n);
  l.Add("serving.generator_lag_us.max",
        *std::max_element(open.lag_us.begin(), open.lag_us.end()), "us", n);
  l.Add("serving.latency_us.p99", Median(out.window_p99), "us",
        out.window_p99.size());
  for (size_t t = 0; t < serving::kNumServingTiers; ++t) {
    l.Add(std::string("serving.tier.") + kTierNames[t],
          static_cast<double>(h.served_at_tier[t]), "count");
  }
  for (size_t t = 0; t < serving::kNumServingTiers; ++t) {
    std::vector<double> us;
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<size_t>(closed.tiers[i]) == t) {
        us.push_back(closed.service_us[i]);
      }
    }
    // The chain never reaches popularity; the drill times that tier.
    if (t == static_cast<size_t>(serving::ServingTier::kPopularity)) us = pop_us;
    l.Add(std::string("serving.tier_us.") + kTierNames[t] + ".p50", Median(us),
          "us", us.size());
  }
  l.Add("serving.popularity_answer_kb",
        static_cast<double>(held.front().capacity() *
                            sizeof(serving::RankedList::value_type)) /
            1024.0,
        "KiB");
  l.Add("serving.retries", static_cast<double>(h.retries), "count");
  l.Add("serving.transient_failures",
        static_cast<double>(h.transient_failures), "count");
  l.Add("serving.deadline_exceeded", static_cast<double>(h.deadline_exceeded),
        "count");
  l.Add("serving.corrupt_rows", static_cast<double>(h.corrupt_rows), "count");
  l.Add("serving.breaker_to_open", static_cast<double>(h.breaker_to_open),
        "count");
  l.Add("serving.breaker_short_circuits",
        static_cast<double>(h.breaker_short_circuits), "count");
  l.Add("serving.scored_via_index", static_cast<double>(h.scored_via_index),
        "count");
  l.Add("serving.scored_brute_force",
        static_cast<double>(h.scored_brute_force), "count");
  l.Add("serving.quantized_scans", static_cast<double>(h.quantized_scans),
        "count");
  l.Add("serving.rerank_rows_per_scan",
        h.quantized_scans ? static_cast<double>(h.rerank_rows) /
                                static_cast<double>(h.quantized_scans)
                          : 0.0,
        "rows");

  // Single-thread replays of the fresh-tier queries: the index alone, and
  // the exact scan that is both the oracle and the degradation fallback.
  std::vector<uint32_t> fresh_queries;
  for (size_t i = 0; i < n && fresh_queries.size() < kReplay; ++i) {
    if (closed.tiers[i] == serving::ServingTier::kFresh) {
      fresh_queries.push_back(reqs[i].query);
    }
  }
  std::vector<double> index_us;
  double rerank_rows = 0.0;
  if (index != nullptr) {
    Span replay(tr, "serving.index_query_replay");
    index_us = TimeCalls(fresh_queries.size(), [&](size_t i) {
      serving::IvfIndex::QueryStats st;
      index->Query(core::SerialExecution(), q_emb.row(fresh_queries[i]), kTopK,
                   index->default_nprobe(), index->default_rerank_k(), &st);
      rerank_rows += static_cast<double>(st.rerank_rows);
    });
  }
  l.Add("serving.index_query_us.p50", Percentile(index_us, 0.5), "us",
        index_us.size());
  l.Add("serving.index_query_us.p99", Percentile(index_us, 0.99), "us",
        index_us.size());
  l.Add("serving.index_rerank_rows",
        index_us.empty() ? 0.0
                         : rerank_rows / static_cast<double>(index_us.size()),
        "rows");
  std::vector<double> topk_us;
  {
    Span replay(tr, "core.topk_replay");
    topk_us = TimeCalls(fresh_queries.size(), [&](size_t i) {
      serving::TopKInnerProduct(q_emb.row(fresh_queries[i]), q_emb.cols(),
                                s_emb, kTopK);
    });
  }
  l.Add("core.topk_us.p50", Percentile(topk_us, 0.5), "us", topk_us.size());
  l.Add("core.topk_us.p99", Percentile(topk_us, 0.99), "us", topk_us.size());

  const std::pair<const char*, const char*> phases[] = {
      {"setup", "phase.setup"},     {"fit", "models.fit"},
      {"refresh", "phase.refresh"}, {"eval", "eval.evaluate"},
      {"serve", "phase.serve"}};
  for (const auto& [phase, name] : phases) {
    l.Add(std::string("proc.rss_mb.") + phase, span(name)->end.rss_mb, "MB");
  }
  for (const auto& [phase, name] : phases) {
    l.Add(std::string("proc.minflt.") + phase, span(name)->minflt(), "count");
  }
  return out;
}

std::string JsonArray(const std::vector<double>& v) {
  std::string json = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    json += (i ? ", " : "") + JsonNumber(v[i]);
  }
  return json + "]";
}

/// The round's raw measurements, for run.py to aggregate over rounds.
std::string RoundJson(const RoundOutput& r) {
  const uint64_t fp = HashBytes(r.fingerprint.data(),
                                r.fingerprint.size() * sizeof(uint64_t));
  char hex[20];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(fp));
  return "{\"setup_s\": " + JsonArray(r.setup_s) +
         ", \"fit_s\": " + JsonNumber(r.fit_s) +
         ", \"refresh_s\": " + JsonNumber(r.refresh_s) +
         ", \"serve_s\": " + JsonNumber(r.serve_s) +
         ", \"timed_s\": " + JsonNumber(r.timed_s()) +
         ", \"tail_auc\": " + JsonNumber(r.quality.tail.auc) +
         ", \"tail_n\": " + std::to_string(r.quality.tail.num_examples) +
         ", \"overall_auc\": " + JsonNumber(r.quality.overall.auc) +
         ", \"overall_n\": " + std::to_string(r.quality.overall.num_examples) +
         ", \"chunk_qps\": " + JsonArray(r.chunk_qps) +
         ", \"window_p50_us\": " + JsonArray(r.window_p50) +
         ", \"window_p99_us\": " + JsonArray(r.window_p99) +
         ", \"recall_at_10\": " + JsonNumber(r.recall) +
         ", \"recall_n\": " + std::to_string(r.recall_n) +
         ", \"fresh_frac\": " + JsonNumber(r.fresh_frac) +
         ", \"requests\": " + std::to_string(r.requests) +
         ", \"peak_rss_mb\": " + JsonNumber(SampleUsage().maxrss_mb) +
         ", \"fingerprint\": \"" + hex + "\"}";
}

// ------------------------------------------------------------------ main

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      a->smoke = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::stoull(v);
    else if (flag == "--seconds") a->seconds = std::stod(v);
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--work-dir") a->work_dir = v;
    else if (flag == "--trace-out") a->trace_out = v;
    else return false;
  }
  return !a->workload.empty() && !a->work_dir.empty() && a->seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: lifecycle_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR [--smoke] [--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (args.workload == w.name) found = &w;
  }
  if (found == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  const WorkloadSpec spec = args.smoke ? Smoke(*found) : *found;

  const std::string provenance =
      "{\"workload\": " + JsonString(spec.name) +
      ", \"seed\": " + std::to_string(args.seed) +
      ", \"seconds\": " + JsonNumber(args.seconds) +
      ", \"smoke\": " + (args.smoke ? "true" : "false") +
      ", \"open_loop_rate_qps\": " + JsonNumber(spec.rate_qps) +
      ", \"serve_workers\": " + std::to_string(kServeWorkers) +
      ", \"train_threads\": " + std::to_string(spec.threads) +
      ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
      ", \"cpu_model\": " + JsonString(ReadCpuModel()) +
      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
      ", \"build_flags\": " + JsonString(PERFBENCH_FLAGS) + "}";

  Checks checks;
  Tracer tracer;
  const RoundOutput round =
      RunRound(spec, args.seed, args.seconds, args.work_dir,
               args.trace ? &tracer : nullptr, &checks);
  std::error_code ec;
  std::filesystem::remove_all(args.work_dir, ec);
  if (args.trace && !args.trace_out.empty()) {
    std::ofstream(args.trace_out) << tracer.ChromeJson(provenance);
  }

  for (const std::string& line : round.report) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& note : checks.notes) {
    std::printf("CHECK FAILED: %s\n", note.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"provenance\": %s, \"round\": %s, \"layers\": %s}\n",
              checks.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(checks.attempted),
              static_cast<unsigned long long>(checks.failed),
              provenance.c_str(), RoundJson(round).c_str(),
              round.layers.Json().c_str());
  return checks.failed == 0 ? 0 : 1;
}
