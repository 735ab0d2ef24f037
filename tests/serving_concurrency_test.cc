// Concurrency & determinism tests for the batched serving path (ISSUE 4):
// BatchRanker and ResilientRanker hammered from many threads must produce
// results bit-identical to a serial pass per request — ranked lists, tier
// decisions, and breaker/health counter totals — with no dropped requests.
// Runs under the TSan lane of scripts/check.sh.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/kernels.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "serving/batch_ranker.h"
#include "serving/fault_injector.h"
#include "serving/ivf_index.h"
#include "serving/ranking_service.h"
#include "serving/resilient_ranker.h"

namespace garcia::serving {
namespace {

using core::Matrix;

constexpr size_t kQueries = 120;
constexpr size_t kServices = 60;
constexpr size_t kDim = 8;

/// The chain ranker's query and service embeddings.
struct ChainEmbeddings {
  Matrix query_emb, service_emb;
  ChainEmbeddings() {
    core::Rng rng(404);
    query_emb = Matrix::Randn(kQueries, kDim, &rng);
    service_emb = Matrix::Randn(kServices, kDim, &rng);
  }
};

/// Head anchor of the chain ranker's tail query q (the ids past the stale
/// snapshot's oldest 70%).
constexpr uint32_t ChainAnchorOf(uint32_t q) { return q % 5; }

/// Full degradation chain over random embeddings: fresh covers all ids,
/// stale the oldest 70%, tail ids anchor onto a head id, text + popularity
/// terminate the chain.
std::shared_ptr<ResilientRanker> MakeChainRanker(ResilienceConfig cfg = {}) {
  const ChainEmbeddings emb;
  const Matrix& query_emb = emb.query_emb;
  const Matrix& service_emb = emb.service_emb;
  auto ranker = std::make_shared<ResilientRanker>(
      EmbeddingStore(query_emb), EmbeddingStore(service_emb), cfg);
  const size_t keep = kQueries * 7 / 10;
  Matrix stale(keep, kDim);
  for (size_t i = 0; i < keep; ++i) stale.CopyRowFrom(query_emb, i, i);
  ranker->SetStaleSnapshot(EmbeddingStore(std::move(stale)));
  std::vector<int32_t> anchors(kQueries, -1);
  for (size_t q = keep; q < kQueries; ++q) {
    anchors[q] = static_cast<int32_t>(ChainAnchorOf(q));
  }
  ranker->SetHeadAnchors(std::move(anchors));
  std::vector<std::string> query_texts, service_names;
  for (size_t q = 0; q < kQueries; ++q) {
    query_texts.push_back(core::StrFormat("query number %zu", q));
  }
  std::vector<double> popularity;
  for (size_t s = 0; s < kServices; ++s) {
    service_names.push_back(core::StrFormat("service number %zu", s));
    popularity.push_back(static_cast<double>((s * 37) % kServices));
  }
  ranker->SetTextFallback(
      std::make_shared<TextRanker>(query_texts, service_names));
  ranker->SetPopularityFallback(
      std::make_shared<PopularityRanker>(popularity));
  return ranker;
}

FaultProfile AggressiveProfile() {
  FaultProfile profile;
  profile.seed = 97;
  profile.lookup_failure_rate = 0.20;
  profile.missing_id_rate = 0.10;
  profile.bit_flip_rate = 0.05;
  profile.latency_spike_rate = 0.05;
  return profile;
}

/// The fault profile perfbench's zipf_serve workload serves under.
FaultProfile ZipfServeProfile() {
  FaultProfile profile;
  profile.seed = 97;
  profile.lookup_failure_rate = 0.10;
  profile.missing_id_rate = 0.05;
  profile.bit_flip_rate = 0.025;
  profile.latency_spike_rate = 0.025;
  return profile;
}

/// Traffic including ids past the embedding table (unknown / cold-start).
std::vector<ServeRequest> MakeTraffic(size_t n) {
  std::vector<ServeRequest> requests(n);
  core::Rng traffic(123);
  for (auto& r : requests) {
    r.query = static_cast<uint32_t>(
        traffic.UniformInt(static_cast<uint64_t>(kQueries + 20)));
    r.k = 3;
  }
  return requests;
}

/// Serial reference pass: explicit indices 0..n-1, tiers captured.
struct SerialReference {
  std::vector<RankedList> lists;
  std::vector<ServingTier> tiers;
  std::string health;
};

SerialReference RunSerialReference(const ResilientRanker& ranker,
                                   const FaultProfile* profile, uint64_t seed,
                                   const std::vector<ServeRequest>& requests) {
  ranker.PrepareForRun(profile, seed);
  SerialReference ref;
  ref.lists.resize(requests.size());
  ref.tiers.resize(requests.size());
  for (size_t i = 0; i < requests.size(); ++i) {
    ref.lists[i] =
        ranker.RankAt(i, requests[i].query, requests[i].k, &ref.tiers[i]);
  }
  ref.health = ranker.health().ToString();
  return ref;
}

TEST(BatchRankerConcurrencyTest, BitIdenticalAcrossThreadAndBatchConfigs) {
  auto ranker = MakeChainRanker();
  const std::vector<ServeRequest> requests = MakeTraffic(400);
  for (const FaultProfile& profile :
       {AggressiveProfile(), ZipfServeProfile()}) {
    const SerialReference ref =
        RunSerialReference(*ranker, &profile, /*seed=*/17, requests);
    for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
      for (const size_t batch_size : {size_t{32}, size_t{400}, size_t{1000}}) {
        ServeConfig serve;
        serve.num_threads = threads;
        serve.batch_size = batch_size;
        BatchRanker batch(ranker, serve);
        ranker->PrepareForRun(&profile, /*seed=*/17);
        const std::vector<RankedList> lists = batch.RankBatch(requests);
        ASSERT_EQ(lists.size(), requests.size());  // nothing dropped
        for (size_t i = 0; i < lists.size(); ++i) {
          ASSERT_FALSE(lists[i].empty()) << "request " << i << " unanswered";
          ASSERT_EQ(lists[i], ref.lists[i])
              << "lookup_failure_rate=" << profile.lookup_failure_rate
              << " threads=" << threads << " batch=" << batch_size
              << " request " << i;
        }
        // Counter totals — attempts, retries, breaker transitions, per-tier
        // serve counts — must match the serial pass exactly.
        EXPECT_EQ(ranker->health().ToString(), ref.health)
            << "lookup_failure_rate=" << profile.lookup_failure_rate
            << " threads=" << threads << " batch=" << batch_size;
      }
    }
  }
}

TEST(BatchRankerConcurrencyTest, IndexStreamContinuesAcrossBatchCalls) {
  auto ranker = MakeChainRanker();
  const FaultProfile profile = AggressiveProfile();
  const std::vector<ServeRequest> requests = MakeTraffic(300);
  const SerialReference ref =
      RunSerialReference(*ranker, &profile, /*seed=*/3, requests);

  ServeConfig serve;
  serve.num_threads = 4;
  BatchRanker batch(ranker, serve);
  ranker->PrepareForRun(&profile, /*seed=*/3);
  // The same stream split into three RankBatch calls: indices continue, so
  // the union must reproduce the one-shot serial pass.
  std::vector<RankedList> lists;
  for (size_t lo = 0; lo < requests.size(); lo += 100) {
    const std::vector<ServeRequest> slice(
        requests.begin() + static_cast<long>(lo),
        requests.begin() + static_cast<long>(lo + 100));
    for (auto& list : batch.RankBatch(slice)) lists.push_back(std::move(list));
  }
  EXPECT_EQ(batch.next_index(), requests.size());
  ASSERT_EQ(lists.size(), ref.lists.size());
  for (size_t i = 0; i < lists.size(); ++i) {
    ASSERT_EQ(lists[i], ref.lists[i]) << "request " << i;
  }
  EXPECT_EQ(ranker->health().ToString(), ref.health);
}

TEST(ResilientRankerConcurrencyTest, RankAtHammerMatchesSerialTiersAndLists) {
  auto ranker = MakeChainRanker();
  const FaultProfile profile = AggressiveProfile();
  const std::vector<ServeRequest> requests = MakeTraffic(400);
  const SerialReference ref =
      RunSerialReference(*ranker, &profile, /*seed=*/29, requests);

  // Raw N-thread hammer on RankAt — no BatchRanker in between. Workers
  // claim indices in ascending order through an atomic counter.
  for (const size_t num_threads : {size_t{2}, size_t{8}}) {
    ranker->PrepareForRun(&profile, /*seed=*/29);
    std::vector<RankedList> lists(requests.size());
    std::vector<ServingTier> tiers(requests.size());
    std::atomic<size_t> counter{0};
    std::vector<std::thread> threads;
    for (size_t t = 0; t < num_threads; ++t) {
      threads.emplace_back([&] {
        for (;;) {
          const size_t i = counter.fetch_add(1);
          if (i >= requests.size()) return;
          lists[i] =
              ranker->RankAt(i, requests[i].query, requests[i].k, &tiers[i]);
        }
      });
    }
    for (auto& t : threads) t.join();
    for (size_t i = 0; i < requests.size(); ++i) {
      ASSERT_EQ(lists[i], ref.lists[i])
          << num_threads << " threads, request " << i;
      ASSERT_EQ(tiers[i], ref.tiers[i])
          << num_threads << " threads, request " << i;
    }
    EXPECT_EQ(ranker->health().ToString(), ref.health)
        << num_threads << " threads";
  }
}

TEST(ResilientRankerConcurrencyTest, AutoIndexedRankIsSafeAndDropsNothing) {
  // Concurrent Rank() calls (arrival-order indices): the interleaving is
  // nondeterministic, but with a fault-free store every in-dump query must
  // be served fresh with its reference list, and the counters must account
  // for every request.
  auto ranker = MakeChainRanker();
  ranker->PrepareForRun(nullptr, /*seed=*/1);
  std::vector<RankedList> expected(kQueries);
  for (uint32_t q = 0; q < kQueries; ++q) {
    expected[q] = ranker->RankAt(q, q, 3);
  }
  ranker->PrepareForRun(nullptr, /*seed=*/1);

  constexpr size_t kThreads = 8, kPerThread = 50;
  std::vector<std::thread> threads;
  std::atomic<size_t> mismatches{0};
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        const uint32_t q =
            static_cast<uint32_t>((t * kPerThread + i * 13) % kQueries);
        if (ranker->Rank(q, 3) != expected[q]) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(mismatches.load(), 0u);
  const ServingHealth h = ranker->health();
  EXPECT_EQ(h.requests, kThreads * kPerThread);
  EXPECT_EQ(h.served_at_tier[0], kThreads * kPerThread);  // all fresh
}

TEST(EmbeddingRankerConcurrencyTest, BatchedHammerMatchesSerial) {
  // A catalog spanning several of TopKDot's 256-row chunks, with a row
  // count and a width that leave the vector path's row and column tails.
  constexpr size_t kCatalog = 2053, kWideDim = 33;
  core::Rng rng(7);
  auto ranker = std::make_shared<EmbeddingRanker>(
      EmbeddingStore(Matrix::Randn(kQueries, kWideDim, &rng)),
      EmbeddingStore(Matrix::Randn(kCatalog, kWideDim, &rng)));
  std::vector<ServeRequest> requests(500);
  core::Rng traffic(5);
  for (auto& r : requests) {
    r.query = static_cast<uint32_t>(
        traffic.UniformInt(static_cast<uint64_t>(kQueries)));
    r.k = 10;
  }
  BatchRanker serial(ranker, ServeConfig{});
  const std::vector<RankedList> ref = serial.RankBatch(requests);
  ASSERT_EQ(serial.RankBatch(requests), ref) << "serial passes differ";
  for (const size_t threads : {size_t{2}, size_t{4}, size_t{8}}) {
    ServeConfig serve;
    serve.num_threads = threads;
    serve.batch_size = 64;
    BatchRanker batch(ranker, serve);
    const std::vector<RankedList> lists = batch.RankBatch(requests);
    ASSERT_EQ(lists.size(), ref.size());
    for (size_t i = 0; i < lists.size(); ++i) {
      ASSERT_EQ(lists[i], ref[i]) << threads << " threads, request " << i;
    }
  }
}

TEST(BatchRankerAsyncTest, AsyncResultsMatchSynchronousPath) {
  auto ranker = MakeChainRanker();
  const FaultProfile profile = AggressiveProfile();
  const auto requests = MakeTraffic(300);
  const SerialReference ref =
      RunSerialReference(*ranker, &profile, /*seed=*/11, requests);

  ranker->PrepareForRun(&profile, /*seed=*/11);
  ServeConfig serve;
  serve.num_threads = 6;
  BatchRanker batch(ranker, serve);
  std::vector<RankedList> results;
  std::atomic<size_t> sink_calls{0};
  batch.RankBatchAsync(requests, &results, [&](size_t, double micros) {
    EXPECT_GE(micros, 0.0);
    sink_calls.fetch_add(1, std::memory_order_relaxed);
  });
  batch.Drain();
  EXPECT_EQ(sink_calls.load(), requests.size());
  ASSERT_EQ(results.size(), ref.lists.size());
  for (size_t i = 0; i < results.size(); ++i) {
    ASSERT_EQ(results[i], ref.lists[i]) << "request " << i;
  }
  EXPECT_EQ(ranker->health().ToString(), ref.health);
}

// Regression: destroying the facade with async requests still in flight
// must drain them (and their latency-sink callbacks) BEFORE the owned
// pool — and before any other member — is torn down. The default member
// destruction order destroyed state stragglers could still observe; under
// ASan this test caught that as a use-after-destruction.
TEST(BatchRankerAsyncTest, DestroyMidFlightDrainsBeforeTeardown) {
  auto ranker = MakeChainRanker();
  const FaultProfile profile = AggressiveProfile();
  const auto requests = MakeTraffic(400);
  const SerialReference ref =
      RunSerialReference(*ranker, &profile, /*seed=*/23, requests);

  for (int round = 0; round < 5; ++round) {
    ranker->PrepareForRun(&profile, /*seed=*/23);
    ServeConfig serve;
    serve.num_threads = 8;
    auto batch = std::make_unique<BatchRanker>(ranker, serve);
    std::vector<RankedList> results;
    std::atomic<size_t> sink_calls{0};
    batch->RankBatchAsync(requests, &results, [&](size_t i, double) {
      // Touches facade-external state the worker must still be allowed to
      // reach while the destructor runs.
      EXPECT_LT(i, requests.size());
      sink_calls.fetch_add(1, std::memory_order_relaxed);
    });
    batch.reset();  // mid-flight destruction: must drain, then tear down
    EXPECT_EQ(sink_calls.load(), requests.size());
    ASSERT_EQ(results.size(), ref.lists.size());
    for (size_t i = 0; i < results.size(); ++i) {
      ASSERT_EQ(results[i], ref.lists[i]) << "round " << round << " req " << i;
    }
  }
}

// ------------------------------------------------------------ answer cache

/// Head-heavy traffic over the chain's ids, unknown ids included: many
/// repeats, so the answer cache serves most embedding-tier requests.
std::vector<ServeRequest> MakeSkewedTraffic(size_t n) {
  std::vector<ServeRequest> requests(n);
  core::Rng traffic(321);
  for (auto& r : requests) {
    const double u = traffic.Uniform();
    r.query = static_cast<uint32_t>(static_cast<double>(kQueries + 20) * u *
                                    u * u);
    r.k = 5;
  }
  return requests;
}

TEST(AnswerCacheConcurrencyTest, ZipfProfileAnswersMatchOracleAtEveryWidth) {
  // Every cached or computed answer must equal a direct scan of the
  // request's resolved embedding, on both scoring paths, and the health
  // totals (cache_hits included) must not depend on the worker count.
  const ChainEmbeddings emb;
  RetrievalConfig rcfg;
  rcfg.nlist = 8;
  auto index = std::make_shared<const IvfIndex>(
      IvfIndex::Build(emb.service_emb, rcfg));
  const FaultProfile profile = ZipfServeProfile();
  const std::vector<ServeRequest> requests = MakeSkewedTraffic(1500);
  for (const bool use_index : {false, true}) {
    auto ranker = MakeChainRanker();
    // Two of eight lists: the index answer is approximate, so the index
    // oracle, not brute force, is the one it must match.
    if (use_index) ranker->SetRetrievalIndex(index, /*nprobe=*/2);
    const SerialReference ref =
        RunSerialReference(*ranker, &profile, /*seed=*/5, requests);
    size_t checked = 0;
    for (size_t i = 0; i < requests.size(); ++i) {
      const ServingTier tier = ref.tiers[i];
      if (tier > ServingTier::kHeadAnchor) continue;
      const uint32_t row = tier == ServingTier::kHeadAnchor
                               ? ChainAnchorOf(requests[i].query)
                               : requests[i].query;
      const float* vec = emb.query_emb.row(row);
      const RankedList want =
          use_index ? index->Query(vec, requests[i].k, /*nprobe=*/2)
                    : TopKInnerProduct(vec, kDim, emb.service_emb,
                                       requests[i].k);
      ASSERT_EQ(ref.lists[i], want) << "index=" << use_index << " request "
                                    << i << " tier " << ServingTierName(tier);
      ++checked;
    }
    const ServingHealth h = ranker->health();
    EXPECT_EQ(checked, h.scored_via_index + h.scored_brute_force);
    EXPECT_GT(h.cache_hits, checked / 2) << h.ToString();
    if (use_index) {
      EXPECT_EQ(h.quantized_scans + h.cache_hits, h.scored_via_index);
    }
    for (const size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      ServeConfig serve;
      serve.num_threads = threads;
      serve.batch_size = 128;
      BatchRanker batch(ranker, serve);
      ranker->PrepareForRun(&profile, /*seed=*/5);
      const std::vector<RankedList> lists = batch.RankBatch(requests);
      for (size_t i = 0; i < lists.size(); ++i) {
        ASSERT_EQ(lists[i], ref.lists[i])
            << "index=" << use_index << " threads=" << threads << " request "
            << i;
      }
      EXPECT_EQ(ranker->health().ToString(), ref.health)
          << "index=" << use_index << " threads=" << threads;
    }
  }
}

TEST(AnswerCacheConcurrencyTest, SingleFlightRunsOneScanAfterAdmission) {
  // One key from many workers: the first sighting and the admitting
  // request scan; every later request takes the admitted answer, waiting
  // for it while the admitting scan is still running.
  constexpr size_t kCatalog = 8192, kWide = 16, kRepeats = 64;
  core::Rng rng(808);
  const Matrix queries = Matrix::Randn(4, kWide, &rng);
  const Matrix services = Matrix::Randn(kCatalog, kWide, &rng);
  RetrievalConfig rcfg;
  rcfg.nlist = 64;
  auto index =
      std::make_shared<const IvfIndex>(IvfIndex::Build(services, rcfg));
  const RankedList want = TopKInnerProduct(queries.row(1), kWide, services, 10);
  const std::vector<ServeRequest> requests(kRepeats, ServeRequest{1, 10});
  for (const bool use_index : {false, true}) {
    auto ranker = std::make_shared<ResilientRanker>(EmbeddingStore(queries),
                                                    EmbeddingStore(services));
    // Full probe: the index answer equals brute force.
    if (use_index) ranker->SetRetrievalIndex(index, /*nprobe=*/rcfg.nlist);
    for (const size_t threads : {size_t{4}, size_t{8}}) {
      ServeConfig serve;
      serve.num_threads = threads;
      BatchRanker batch(ranker, serve);
      ranker->PrepareForRun(nullptr, /*seed=*/1);
      for (const RankedList& list : batch.RankBatch(requests)) {
        ASSERT_EQ(list, want) << "index=" << use_index << " threads="
                              << threads;
      }
      const ServingHealth h = ranker->health();
      EXPECT_EQ(h.cache_hits, kRepeats - 2) << h.ToString();
      EXPECT_EQ(h.quantized_scans, use_index ? 2u : 0u) << h.ToString();
      EXPECT_EQ(use_index ? h.scored_via_index : h.scored_brute_force,
                kRepeats);
    }
  }
}

}  // namespace
}  // namespace garcia::serving
