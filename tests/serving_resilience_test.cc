// Tests for the fault-tolerant serving layer (ISSUE 1): fault injection,
// retry exhaustion, circuit-breaker transitions, every tier of the
// degradation chain, deterministic replay, and hardened store loading.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/clock.h"
#include "core/rng.h"
#include "models/contrastive.h"
#include "serving/ab_test.h"
#include "serving/batch_ranker.h"
#include "serving/embedding_store.h"
#include "serving/fault_injector.h"
#include "serving/ivf_index.h"
#include "serving/resilience.h"
#include "serving/resilient_ranker.h"

namespace garcia::serving {
namespace {

using core::Matrix;

// --------------------------------------------------------- store hardening

TEST(EmbeddingStoreHardeningTest, FindReturnsNullptrOutOfRange) {
  EmbeddingStore store(Matrix({{1, 2}, {3, 4}}));
  EXPECT_NE(store.Find(0), nullptr);
  EXPECT_NE(store.Find(1), nullptr);
  EXPECT_EQ(store.Find(2), nullptr);
  EXPECT_EQ(store.Find(12345), nullptr);
  EXPECT_TRUE(store.Contains(1));
  EXPECT_FALSE(store.Contains(2));
  EXPECT_FLOAT_EQ(store.Find(1)[1], 4.0f);
}

std::string TempPath(const char* name) {
  return std::string("/tmp/garcia_resilience_") + name + ".bin";
}

TEST(EmbeddingStoreHardeningTest, V2RoundTripWithChecksum) {
  core::Rng rng(3);
  EmbeddingStore store(Matrix::Randn(7, 5, &rng));
  const std::string path = TempPath("v2_roundtrip");
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().matrix().AllClose(store.matrix()));
  std::remove(path.c_str());
}

TEST(EmbeddingStoreHardeningTest, AtomicSaveRepairsTornDumpAndLeavesNoTemp) {
  // A torn dump under the final name (a legacy non-atomic writer killed
  // mid-write) must be rejected on load, and a subsequent Save must
  // atomically replace it without stranding its temp file.
  core::Rng rng(17);
  EmbeddingStore store(Matrix::Randn(9, 4, &rng));
  const std::string path = TempPath("torn_dump");
  ASSERT_TRUE(store.Save(path).ok());
  {
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size() / 2));
  }
  EXPECT_FALSE(EmbeddingStore::Load(path).ok());

  ASSERT_TRUE(store.Save(path).ok());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good())
      << "atomic save stranded its temp file";
  auto reloaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  EXPECT_TRUE(reloaded.value().matrix().AllClose(store.matrix()));
  std::remove(path.c_str());
}

TEST(EmbeddingStoreHardeningTest, AtomicSaveOverwritesStrayTempFile) {
  core::Rng rng(19);
  EmbeddingStore store(Matrix::Randn(3, 6, &rng));
  const std::string path = TempPath("stray_tmp");
  {
    std::ofstream f(path + ".tmp", std::ios::binary);
    f << "stranded by a crashed writer";
  }
  ASSERT_TRUE(store.Save(path).ok());
  EXPECT_FALSE(std::ifstream(path + ".tmp").good());
  auto loaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(EmbeddingStoreHardeningTest, SaveIntoMissingDirectoryFailsCleanly) {
  EmbeddingStore store(Matrix({{1, 2}, {3, 4}}));
  const auto st = store.Save("/tmp/garcia_no_such_dir_xq7/dump.bin");
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), core::StatusCode::kIoError);
}

TEST(EmbeddingStoreHardeningTest, ChecksumRejectsFlippedPayloadByte) {
  core::Rng rng(4);
  EmbeddingStore store(Matrix::Randn(6, 4, &rng));
  const std::string path = TempPath("flipped");
  ASSERT_TRUE(store.Save(path).ok());
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-3, std::ios::end);  // somewhere inside the payload
    char b;
    f.seekg(-3, std::ios::end);
    f.get(b);
    f.seekp(-3, std::ios::end);
    f.put(static_cast<char>(b ^ 0x10));
  }
  auto r = EmbeddingStore::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EmbeddingStoreHardeningTest, TruncatedFileRejected) {
  core::Rng rng(5);
  EmbeddingStore store(Matrix::Randn(6, 4, &rng));
  const std::string path = TempPath("truncated");
  ASSERT_TRUE(store.Save(path).ok());
  // Rewrite the file minus its last 5 bytes.
  std::string bytes;
  {
    std::ifstream f(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(f), {});
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(bytes.data(), static_cast<std::streamsize>(bytes.size() - 5));
  }
  EXPECT_FALSE(EmbeddingStore::Load(path).ok());
  std::remove(path.c_str());
}

TEST(EmbeddingStoreHardeningTest, TrailingGarbageRejected) {
  core::Rng rng(6);
  EmbeddingStore store(Matrix::Randn(3, 3, &rng));
  const std::string path = TempPath("trailing");
  ASSERT_TRUE(store.Save(path).ok());
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write("junk", 4);
  }
  auto r = EmbeddingStore::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing"), std::string::npos);
  std::remove(path.c_str());
}

TEST(EmbeddingStoreHardeningTest, CraftedHugeHeaderRejectedWithoutAllocating) {
  // A ~30-byte file whose header claims a multi-terabyte payload must be
  // rejected up front (payload cap / file-size check), not by attempting
  // the allocation.
  const std::string path = TempPath("huge_header");
  {
    std::ofstream f(path, std::ios::binary);
    f.write("GEM2", 4);
    const uint32_t version = 2;
    const uint64_t rows = 1ull << 31, cols = 1ull << 15;
    const uint32_t crc = 0;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    f.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  auto r = EmbeddingStore::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());

  // Under the cap but with no payload present: also rejected pre-allocation.
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write("GEM2", 4);
    const uint32_t version = 2;
    const uint64_t rows = 1000, cols = 16;
    const uint32_t crc = 0;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    f.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
  }
  EXPECT_FALSE(EmbeddingStore::Load(path).ok());
  std::remove(path.c_str());
}

// A well-formed legacy v1 dump ("GEMB", no checksum) is refused by name:
// every embedding load is CRC-checked, so an unverifiable payload never
// reaches serving.
TEST(EmbeddingStoreHardeningTest, LegacyV1RejectedWithNamedError) {
  const std::string path = TempPath("legacy_v1");
  Matrix m({{1, 2}, {3, 4}, {5, 6}});
  {
    std::ofstream f(path, std::ios::binary);
    f.write("GEMB", 4);
    const uint64_t rows = 3, cols = 2;
    f.write(reinterpret_cast<const char*>(&rows), sizeof(rows));
    f.write(reinterpret_cast<const char*>(&cols), sizeof(cols));
    f.write(reinterpret_cast<const char*>(m.data()),
            static_cast<std::streamsize>(rows * cols * sizeof(float)));
  }
  auto r = EmbeddingStore::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("legacy v1"), std::string::npos)
      << r.status().ToString();
  EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

// ----------------------------------------------------------- fault injector

TEST(FaultInjectorTest, CleanProfilePassesThrough) {
  EmbeddingStore store(Matrix({{1, 2}, {3, 4}}));
  FaultInjector injector(&store, FaultProfile{});
  LookupOutcome out = injector.Lookup(1);
  ASSERT_TRUE(out.status.ok());
  EXPECT_FLOAT_EQ(out.row[0], 3.0f);
  EXPECT_EQ(out.fault, FaultKind::kNone);
  // Genuinely unknown id: NotFound, not a crash.
  out = injector.Lookup(99);
  EXPECT_EQ(out.status.code(), core::StatusCode::kNotFound);
  EXPECT_EQ(out.row, nullptr);
}

TEST(FaultInjectorTest, RatesRoughlyRespected) {
  core::Rng rng(8);
  EmbeddingStore store(Matrix::Randn(50, 4, &rng));
  FaultProfile profile;
  profile.seed = 11;
  profile.lookup_failure_rate = 0.3;
  profile.missing_id_rate = 0.2;
  profile.bit_flip_rate = 0.1;
  profile.latency_spike_rate = 0.15;
  FaultInjector injector(&store, profile);
  const size_t kN = 20000;
  for (size_t i = 0; i < kN; ++i) injector.Lookup(i % 50);
  EXPECT_EQ(injector.num_lookups(), kN);
  EXPECT_NEAR(injector.num_faults(FaultKind::kUnavailable) / double(kN), 0.3,
              0.02);
  // Missing-id draws fire only when the lookup was not already unavailable.
  EXPECT_NEAR(injector.num_faults(FaultKind::kMissingId) / double(kN),
              0.2 * 0.7, 0.02);
  EXPECT_NEAR(injector.num_faults(FaultKind::kLatencySpike) / double(kN),
              0.15, 0.02);
  EXPECT_GT(injector.num_faults(FaultKind::kBitFlip), 0u);
}

TEST(FaultInjectorTest, BitFlippedRowFailsValidation) {
  EmbeddingStore store(Matrix({{1.0f, 2.0f, 3.0f, 4.0f}}));
  FaultProfile profile;
  profile.bit_flip_rate = 1.0;
  FaultInjector injector(&store, profile);
  LookupOutcome out = injector.Lookup(0);
  ASSERT_TRUE(out.status.ok());
  EXPECT_EQ(out.fault, FaultKind::kBitFlip);
  EXPECT_FALSE(RowLooksValid(out.row, 4));
  // The store itself is untouched.
  EXPECT_TRUE(RowLooksValid(store.Find(0), 4));
}

TEST(FaultInjectorTest, BitIdenticalReplayForFixedSeed) {
  core::Rng rng(9);
  EmbeddingStore store(Matrix::Randn(20, 4, &rng));
  FaultProfile profile;
  profile.seed = 77;
  profile.lookup_failure_rate = 0.25;
  profile.missing_id_rate = 0.15;
  profile.bit_flip_rate = 0.2;
  profile.latency_spike_rate = 0.1;
  FaultInjector a(&store, profile);
  FaultInjector b(&store, profile);
  for (size_t i = 0; i < 2000; ++i) {
    LookupOutcome oa = a.Lookup(i % 20);
    LookupOutcome ob = b.Lookup(i % 20);
    ASSERT_EQ(oa.status.code(), ob.status.code()) << "lookup " << i;
    ASSERT_EQ(oa.fault, ob.fault) << "lookup " << i;
    ASSERT_EQ(oa.latency_micros, ob.latency_micros) << "lookup " << i;
    if (oa.status.ok()) {
      // Bit-identical, including the corrupted values (memcmp, since a
      // poisoned element may be NaN and NaN != NaN).
      ASSERT_EQ(std::memcmp(oa.row, ob.row, 4 * sizeof(float)), 0)
          << "lookup " << i;
    }
  }
  // Reset rewinds to the same stream.
  a.Reset();
  FaultInjector c(&store, profile);
  for (size_t i = 0; i < 100; ++i) {
    ASSERT_EQ(a.Lookup(i % 20).fault, c.Lookup(i % 20).fault);
  }
}

// ----------------------------------------------------------- circuit breaker

TEST(CircuitBreakerTest, OpensAfterConsecutiveFailuresAndShortCircuits) {
  core::ManualClock clock;
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.open_cooldown_micros = 1000;
  CircuitBreaker breaker(cfg, &clock);
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  // A success resets the consecutive count.
  breaker.RecordSuccess();
  breaker.RecordFailure();
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.transitions_to_open(), 1u);
  EXPECT_FALSE(breaker.AllowRequest());
  clock.AdvanceMicros(999);
  EXPECT_FALSE(breaker.AllowRequest());
}

TEST(CircuitBreakerTest, HalfOpenClosesOnProbeSuccesses) {
  core::ManualClock clock;
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_cooldown_micros = 1000;
  cfg.half_open_successes = 2;
  CircuitBreaker breaker(cfg, &clock);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  clock.AdvanceMicros(1000);
  EXPECT_TRUE(breaker.AllowRequest());  // open -> half-open
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  EXPECT_EQ(breaker.transitions_to_half_open(), 1u);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordSuccess();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kClosed);
  EXPECT_EQ(breaker.transitions_to_closed(), 1u);
}

TEST(CircuitBreakerTest, HalfOpenReopensOnProbeFailure) {
  core::ManualClock clock;
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.open_cooldown_micros = 500;
  CircuitBreaker breaker(cfg, &clock);
  breaker.RecordFailure();
  clock.AdvanceMicros(500);
  EXPECT_TRUE(breaker.AllowRequest());
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kHalfOpen);
  breaker.RecordFailure();
  EXPECT_EQ(breaker.state(), CircuitBreaker::State::kOpen);
  EXPECT_EQ(breaker.transitions_to_open(), 2u);
  // And the cooldown restarts from the re-open.
  clock.AdvanceMicros(499);
  EXPECT_FALSE(breaker.AllowRequest());
  clock.AdvanceMicros(1);
  EXPECT_TRUE(breaker.AllowRequest());
}

// -------------------------------------------------------- degradation chain

/// Fixture wiring: 3 services, fresh store with query ids {0, 1}, stale
/// with ids {0..3}, anchors / text / popularity as each test needs.
class ChainTest : public ::testing::Test {
 protected:
  ChainTest()
      : services_(Matrix({{1, 0}, {0, 1}, {0.5, 0.5}})),
        fresh_(Matrix({{1, 0}, {0, 1}})),
        stale_(Matrix({{1, 0}, {0, 1}, {0.9, 0.1}, {0.1, 0.9}})) {}

  std::unique_ptr<ResilientRanker> MakeRanker(ResilienceConfig cfg = {}) {
    auto ranker = std::make_unique<ResilientRanker>(
        EmbeddingStore(fresh_), EmbeddingStore(services_), cfg);
    return ranker;
  }

  Matrix services_, fresh_, stale_;
};

TEST_F(ChainTest, Tier0FreshServesHealthyLookups) {
  auto ranker = MakeRanker();
  RankedList r = ranker->Rank(0, 2);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].first, 0u);  // query (1,0) -> service (1,0)
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.requests, 1u);
  EXPECT_EQ(h.served_at_tier[0], 1u);
  EXPECT_EQ(h.MeanFallbackDepth(), 0.0);
}

TEST_F(ChainTest, Tier1StaleServesIdMissingFromFreshDump) {
  auto ranker = MakeRanker();
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  RankedList r = ranker->Rank(2, 1);  // id 2: not in fresh, in stale
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].first, 0u);  // stale row (0.9, 0.1) -> service (1,0)
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.missing_ids, 1u);
  EXPECT_EQ(h.served_at_tier[1], 1u);
}

TEST_F(ChainTest, Tier2HeadAnchorServesColdStartTailQuery) {
  auto ranker = MakeRanker();
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  std::vector<int32_t> anchors(8, -1);
  anchors[5] = 1;  // tail query 5's mined head anchor is query 1
  ranker->SetHeadAnchors(std::move(anchors));
  RankedList r = ranker->Rank(5, 1);  // id 5: in neither store
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].first, 1u);  // head query 1 = (0,1) -> service (0,1)
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.served_at_tier[2], 1u);
}

TEST_F(ChainTest, Tier3TextFallbackWhenNoAnchor) {
  auto ranker = MakeRanker();
  std::vector<std::string> query_texts(8);
  query_texts[7] = "fresh coffee beans";
  ranker->SetTextFallback(std::make_shared<TextRanker>(
      query_texts,
      std::vector<std::string>{"pizza oven", "coffee roaster", "car wash"}));
  RankedList r = ranker->Rank(7, 3);  // unknown id, no anchor -> text
  ASSERT_EQ(r.size(), 3u);
  EXPECT_EQ(r[0].first, 1u);  // "coffee" matches the roaster
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.served_at_tier[3], 1u);
}

TEST_F(ChainTest, Tier4PopularityPriorIsTheTerminalTier) {
  auto ranker = MakeRanker();
  ranker->SetPopularityFallback(
      std::make_shared<PopularityRanker>(std::vector<double>{0.1, 5.0, 2.0}));
  RankedList r = ranker->Rank(42, 2);  // unknown id, no other tiers wired
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].first, 1u);
  EXPECT_EQ(r[1].first, 2u);
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.served_at_tier[4], 1u);
  EXPECT_EQ(h.MeanFallbackDepth(), 4.0);
}

TEST_F(ChainTest, RetryExhaustionFallsThroughAndCountsRetries) {
  ResilienceConfig cfg;
  cfg.max_attempts = 3;
  cfg.breaker.failure_threshold = 100;  // keep the breaker out of the way
  cfg.deadline_micros = 1000000;
  auto ranker = MakeRanker(cfg);
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  FaultProfile profile;
  profile.lookup_failure_rate = 1.0;  // the fresh path never answers
  ranker->SetFaultProfile(profile);
  RankedList r = ranker->Rank(0, 1);
  ASSERT_EQ(r.size(), 1u);
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.attempts, 3u);
  EXPECT_EQ(h.retries, 2u);
  EXPECT_EQ(h.transient_failures, 3u);
  EXPECT_EQ(h.served_at_tier[1], 1u);  // rescued by the stale snapshot
}

TEST_F(ChainTest, LatencySpikeBlowsDeadlineAndDegrades) {
  ResilienceConfig cfg;
  cfg.deadline_micros = 5000;
  auto ranker = MakeRanker(cfg);
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  FaultProfile profile;
  profile.latency_spike_rate = 1.0;
  profile.spike_latency_micros = 20000;  // 4x the budget
  ranker->SetFaultProfile(profile);
  RankedList r = ranker->Rank(0, 1);
  ASSERT_FALSE(r.empty());
  ServingHealth h = ranker->health();
  EXPECT_GE(h.deadline_exceeded, 1u);
  EXPECT_EQ(h.served_at_tier[1], 1u);
}

TEST_F(ChainTest, CorruptRowIsRejectedAndRetried) {
  ResilienceConfig cfg;
  cfg.max_attempts = 2;
  cfg.deadline_micros = 1000000;
  auto ranker = MakeRanker(cfg);
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  FaultProfile profile;
  profile.bit_flip_rate = 1.0;  // every fresh row comes back poisoned
  ranker->SetFaultProfile(profile);
  RankedList r = ranker->Rank(0, 1);
  ASSERT_FALSE(r.empty());
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.corrupt_rows, 2u);       // both attempts rejected
  EXPECT_EQ(h.served_at_tier[1], 1u);  // served from the clean snapshot
}

TEST_F(ChainTest, BreakerOpensShortCircuitsThenRecovers) {
  ResilienceConfig cfg;
  cfg.max_attempts = 1;
  cfg.breaker.failure_threshold = 2;
  cfg.breaker.open_cooldown_micros = 50000;
  cfg.breaker.half_open_successes = 2;
  cfg.inter_request_micros = 0;  // time only moves when we say so
  cfg.deadline_micros = 1000000;
  auto ranker = MakeRanker(cfg);
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  FaultProfile failing;
  failing.lookup_failure_rate = 1.0;
  ranker->SetFaultProfile(failing);

  ranker->Rank(0, 1);  // failure 1
  EXPECT_EQ(ranker->breaker_state(), CircuitBreaker::State::kClosed);
  ranker->Rank(0, 1);  // failure 2 -> open
  EXPECT_EQ(ranker->breaker_state(), CircuitBreaker::State::kOpen);
  ranker->Rank(0, 1);  // short-circuited
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.breaker_to_open, 1u);
  EXPECT_GE(h.breaker_short_circuits, 1u);
  EXPECT_EQ(h.attempts, 2u);  // the third request never hit the store

  // The store recovers; after the cooldown the breaker probes and closes.
  FaultProfile healthy;  // all rates zero
  ranker->SetFaultProfile(healthy);
  ranker->AdvanceClockMicros(50000);
  ranker->Rank(0, 1);  // probe 1 (half-open)
  EXPECT_EQ(ranker->breaker_state(), CircuitBreaker::State::kHalfOpen);
  ranker->Rank(1, 1);  // probe 2 -> closed
  EXPECT_EQ(ranker->breaker_state(), CircuitBreaker::State::kClosed);
  h = ranker->health();
  EXPECT_EQ(h.breaker_to_half_open, 1u);
  EXPECT_EQ(h.breaker_to_closed, 1u);
  EXPECT_EQ(h.served_at_tier[0], 2u);  // both probes served fresh
}

TEST_F(ChainTest, HalfOpenProbeFailureReopensViaRanker) {
  ResilienceConfig cfg;
  cfg.max_attempts = 1;
  cfg.breaker.failure_threshold = 1;
  cfg.breaker.open_cooldown_micros = 1000;
  cfg.inter_request_micros = 0;
  auto ranker = MakeRanker(cfg);
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  FaultProfile failing;
  failing.lookup_failure_rate = 1.0;
  ranker->SetFaultProfile(failing);
  ranker->Rank(0, 1);  // open
  EXPECT_EQ(ranker->breaker_state(), CircuitBreaker::State::kOpen);
  ranker->AdvanceClockMicros(1000);
  ranker->Rank(0, 1);  // half-open probe fails -> open again
  EXPECT_EQ(ranker->breaker_state(), CircuitBreaker::State::kOpen);
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.breaker_to_open, 2u);
  EXPECT_EQ(h.breaker_to_half_open, 1u);
}

TEST_F(ChainTest, NeverAbortsUnderMixedFaultsAndUnknownIds) {
  auto ranker = MakeRanker();
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  std::vector<int32_t> anchors(64, -1);
  anchors[10] = 0;
  ranker->SetHeadAnchors(std::move(anchors));
  FaultProfile profile;
  profile.seed = 5;
  profile.lookup_failure_rate = 0.2;
  profile.missing_id_rate = 0.1;
  profile.bit_flip_rate = 0.05;
  profile.latency_spike_rate = 0.05;
  ranker->SetFaultProfile(profile);
  size_t answered = 0;
  for (uint32_t q = 0; q < 64; ++q) {
    RankedList r = ranker->Rank(q % 16, 2);
    answered += !r.empty();
  }
  EXPECT_EQ(answered, 64u);
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.requests, 64u);
  uint64_t served = 0;
  for (uint64_t c : h.served_at_tier) served += c;
  EXPECT_EQ(served, 64u);  // every request was served by exactly one tier
}

TEST_F(ChainTest, PrepareForRunGivesBitIdenticalReplay) {
  ResilienceConfig cfg;
  auto ranker = MakeRanker(cfg);
  ranker->SetStaleSnapshot(EmbeddingStore(stale_));
  FaultProfile profile;
  profile.seed = 31;
  profile.lookup_failure_rate = 0.3;
  profile.missing_id_rate = 0.2;
  profile.bit_flip_rate = 0.1;
  profile.latency_spike_rate = 0.1;

  auto run = [&] {
    std::vector<RankedList> out;
    for (uint32_t i = 0; i < 200; ++i) out.push_back(ranker->Rank(i % 8, 3));
    return out;
  };
  ranker->PrepareForRun(&profile, 17);
  auto first = run();
  ServingHealth h1 = ranker->health();
  ranker->PrepareForRun(&profile, 17);
  auto second = run();
  ServingHealth h2 = ranker->health();
  EXPECT_EQ(first, second);
  EXPECT_EQ(h1.ToString(), h2.ToString());
  EXPECT_GT(h1.transient_failures, 0u);  // the profile actually did inject
}

TEST_F(ChainTest, FaultSweepBatchedPathReplaysSerialTierSequence) {
  // Sweep fault intensities; at each level, replay the same seed through
  // the serial explicit-index path and through the 4-thread batched path.
  // Per-request ranked lists, per-request tier decisions, and the health
  // counter totals must be identical.
  for (const double rate : {0.0, 0.15, 0.4}) {
    std::shared_ptr<ResilientRanker> ranker(MakeRanker());
    ranker->SetStaleSnapshot(EmbeddingStore(stale_));
    std::vector<int32_t> anchors(10, -1);
    anchors[7] = 0;
    anchors[8] = 1;
    ranker->SetHeadAnchors(std::move(anchors));
    FaultProfile profile;
    profile.seed = 55;
    profile.lookup_failure_rate = rate;
    profile.missing_id_rate = rate / 2;
    profile.bit_flip_rate = rate / 4;
    profile.latency_spike_rate = rate / 4;

    const size_t kN = 300;
    ranker->PrepareForRun(&profile, /*seed=*/9);
    std::vector<RankedList> ref_lists(kN);
    std::vector<ServingTier> ref_tiers(kN);
    for (size_t i = 0; i < kN; ++i) {
      ref_lists[i] =
          ranker->RankAt(i, static_cast<uint32_t>(i % 10), 3, &ref_tiers[i]);
    }
    const std::string ref_health = ranker->health().ToString();

    // Batched replay of the same seed.
    std::vector<ServeRequest> requests(kN);
    for (size_t i = 0; i < kN; ++i) {
      requests[i] = {static_cast<uint32_t>(i % 10), 3};
    }
    ServeConfig serve;
    serve.num_threads = 4;
    BatchRanker batch(ranker, serve);
    ranker->PrepareForRun(&profile, /*seed=*/9);
    const std::vector<RankedList> lists = batch.RankBatch(requests);
    ASSERT_EQ(lists.size(), kN);
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(lists[i], ref_lists[i]) << "rate " << rate << " request " << i;
    }
    EXPECT_EQ(ranker->health().ToString(), ref_health) << "rate " << rate;

    // Tier-selection sequence under concurrency: re-run with the tier out
    // param from competing threads and compare against the serial tiers.
    ranker->PrepareForRun(&profile, /*seed=*/9);
    std::vector<ServingTier> tiers(kN);
    std::atomic<size_t> counter{0};
    std::vector<std::thread> workers;
    for (int t = 0; t < 4; ++t) {
      workers.emplace_back([&] {
        for (;;) {
          const size_t i = counter.fetch_add(1);
          if (i >= kN) return;
          ranker->RankAt(i, static_cast<uint32_t>(i % 10), 3, &tiers[i]);
        }
      });
    }
    for (auto& w : workers) w.join();
    for (size_t i = 0; i < kN; ++i) {
      ASSERT_EQ(tiers[i], ref_tiers[i]) << "rate " << rate << " request " << i;
    }
    EXPECT_EQ(ranker->health().ToString(), ref_health) << "rate " << rate;
  }
}

// --------------------------------------------- retrieval-index scoring path

TEST_F(ChainTest, InstalledIndexServesFreshTierAndCountsScoringPath) {
  auto ranker = MakeRanker();
  RetrievalConfig rcfg;
  rcfg.nlist = 2;
  auto index = std::make_shared<const IvfIndex>(IvfIndex::Build(services_, rcfg));
  ranker->SetRetrievalIndex(index, /*nprobe=*/index->nlist());
  RankedList r = ranker->Rank(0, 2);  // full probe: oracle-exact
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].first, 0u);  // query (1,0) -> service (1,0)
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.served_at_tier[0], 1u);
  EXPECT_EQ(h.scored_via_index, 1u);
  EXPECT_EQ(h.scored_brute_force, 0u);
  EXPECT_EQ(h.index_load_failures, 0u);
  // The counters surface on the dashboard string.
  EXPECT_NE(h.ToString().find("scoring[index=1,brute=0"), std::string::npos);
}

TEST_F(ChainTest, CorruptIndexDumpDegradesToBruteForceScoring) {
  // Ops publishes an index dump; a bit flips at rest. The load must be
  // rejected (per-section CRC), counted, and serving must keep answering on
  // the brute-force scan with IDENTICAL results — the index is a
  // performance tier, not a correctness tier.
  const std::string path = "/tmp/garcia_resilience_corrupt_index.ivf";
  {
    RetrievalConfig rcfg;
    rcfg.nlist = 2;
    ASSERT_TRUE(IvfIndex::Build(services_, rcfg).Save(path).ok());
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-2, std::ios::end);
    char b;
    f.seekg(-2, std::ios::end);
    f.get(b);
    f.seekp(-2, std::ios::end);
    f.put(static_cast<char>(b ^ 0x20));
  }
  auto ranker = MakeRanker();
  const core::Status st = ranker->LoadRetrievalIndex(path);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("checksum"), std::string::npos)
      << st.ToString();
  auto reference = MakeRanker();  // never had an index
  RankedList got = ranker->Rank(0, 2);
  RankedList want = reference->Rank(0, 2);
  EXPECT_EQ(got, want);
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.index_load_failures, 1u);
  EXPECT_EQ(h.scored_via_index, 0u);
  EXPECT_EQ(h.scored_brute_force, 1u);
  EXPECT_EQ(h.served_at_tier[0], 1u);  // tier decision unaffected
  std::remove(path.c_str());

  // A clean dump loads and flips the scoring path over.
  {
    RetrievalConfig rcfg;
    rcfg.nlist = 2;
    rcfg.nprobe = 2;
    ASSERT_TRUE(IvfIndex::Build(services_, rcfg).Save(path).ok());
  }
  ASSERT_TRUE(ranker->LoadRetrievalIndex(path).ok());
  EXPECT_EQ(ranker->Rank(0, 2), want);  // full probe: still oracle-exact
  h = ranker->health();
  EXPECT_EQ(h.scored_via_index, 1u);
  EXPECT_EQ(h.scored_brute_force, 1u);
  std::remove(path.c_str());
}

TEST_F(ChainTest, Sq8IndexCountsScansRerankRowsAndMemoryOnDashboard) {
  auto ranker = MakeRanker();
  RetrievalConfig rcfg;
  rcfg.nlist = 2;
  auto index =
      std::make_shared<const IvfIndex>(IvfIndex::Build(services_, rcfg));
  ranker->SetRetrievalIndex(index, /*nprobe=*/index->nlist());
  // Full probe + band re-rank: still the oracle answer.
  auto reference = MakeRanker();
  EXPECT_EQ(ranker->Rank(0, 2), reference->Rank(0, 2));
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.scored_via_index, 1u);
  EXPECT_EQ(h.quantized_scans, 1u);
  EXPECT_GE(h.rerank_rows, 2u);  // at least the k it returned
  EXPECT_EQ(h.index_memory_bytes, index->MemoryBytes());
  EXPECT_GT(h.index_memory_bytes, 0u);
  // All three surface on the dashboard string.
  const std::string s = h.ToString();
  EXPECT_NE(s.find("sq8[scans=1,rerank_rows="), std::string::npos) << s;
  EXPECT_NE(s.find("index_memory_bytes="), std::string::npos) << s;
  // The footprint gauge survives a run reset; the per-run counters don't.
  ranker->PrepareForRun(nullptr, 1);
  h = ranker->health();
  EXPECT_EQ(h.quantized_scans, 0u);
  EXPECT_EQ(h.index_memory_bytes, index->MemoryBytes());
}

TEST_F(ChainTest, Sq8DumpLoadsAndReattachesOwnCatalog) {
  const std::string path = "/tmp/garcia_resilience_sq8_dump.ivf";
  {
    RetrievalConfig rcfg;
    rcfg.nlist = 2;
    rcfg.nprobe = 2;
    ASSERT_TRUE(IvfIndex::Build(services_, rcfg).Save(path).ok());
  }
  auto ranker = MakeRanker();
  // LoadRetrievalIndex must attach the ranker's own service catalog for
  // the exact re-rank stage (a GIV2 dump carries codes only).
  ASSERT_TRUE(ranker->LoadRetrievalIndex(path).ok());
  auto reference = MakeRanker();
  EXPECT_EQ(ranker->Rank(0, 2), reference->Rank(0, 2));
  EXPECT_EQ(ranker->Rank(1, 3), reference->Rank(1, 3));
  ServingHealth h = ranker->health();
  EXPECT_EQ(h.quantized_scans, 2u);
  EXPECT_GT(h.index_memory_bytes, 0u);
  std::remove(path.c_str());
}

TEST_F(ChainTest, TierSequenceUnderFaultsIdenticalWithAndWithoutIndex) {
  // The scoring path is orthogonal to the resolve phase: under an
  // aggressive fault profile, the per-request TIER decisions (and, at full
  // probe, the ranked lists) must be byte-identical whether or not the
  // index is installed — deterministically, across replays.
  FaultProfile profile;
  profile.seed = 23;
  profile.lookup_failure_rate = 0.3;
  profile.missing_id_rate = 0.2;
  profile.bit_flip_rate = 0.1;
  profile.latency_spike_rate = 0.1;

  auto plain = MakeRanker();
  plain->SetStaleSnapshot(EmbeddingStore(stale_));
  auto indexed = MakeRanker();
  indexed->SetStaleSnapshot(EmbeddingStore(stale_));
  RetrievalConfig rcfg;
  rcfg.nlist = 3;
  indexed->SetRetrievalIndex(
      std::make_shared<const IvfIndex>(IvfIndex::Build(services_, rcfg)),
      /*nprobe=*/3);

  const size_t kN = 200;
  plain->PrepareForRun(&profile, 11);
  indexed->PrepareForRun(&profile, 11);
  uint64_t indexed_scored = 0;
  for (size_t i = 0; i < kN; ++i) {
    ServingTier plain_tier, indexed_tier;
    RankedList a = plain->RankAt(i, static_cast<uint32_t>(i % 8), 3,
                                 &plain_tier);
    RankedList b = indexed->RankAt(i, static_cast<uint32_t>(i % 8), 3,
                                   &indexed_tier);
    ASSERT_EQ(indexed_tier, plain_tier) << "request " << i;
    ASSERT_EQ(b, a) << "request " << i;
  }
  const ServingHealth hp = plain->health();
  const ServingHealth hi = indexed->health();
  EXPECT_EQ(hp.served_at_tier, hi.served_at_tier);
  EXPECT_EQ(hp.requests, hi.requests);
  EXPECT_EQ(hp.transient_failures, hi.transient_failures);
  // Every embedding-tier request moved from the brute column to the index
  // column; non-embedding tiers (text/popularity) score through neither.
  EXPECT_EQ(hp.scored_via_index, 0u);
  EXPECT_EQ(hi.scored_brute_force, 0u);
  EXPECT_EQ(hi.scored_via_index, hp.scored_brute_force);
  indexed_scored = hi.scored_via_index;
  EXPECT_EQ(indexed_scored, hp.served_at_tier[0] + hp.served_at_tier[1] +
                                hp.served_at_tier[2]);
  EXPECT_GT(indexed_scored, 0u);
}

// ------------------------------------------------------- helper rankers

TEST(TextRankerTest, RanksBySimilarityAndClampsK) {
  TextRanker ranker({"espresso bar"}, {"laundry", "espresso coffee bar"});
  RankedList r = ranker.Rank(0, 10);
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0].first, 1u);
  EXPECT_GT(r[0].second, r[1].second);
  // Unknown query id: still answers (empty text -> zero scores).
  EXPECT_EQ(ranker.Rank(99, 1).size(), 1u);
}

// ------------------------------------------------- A/B test under faults

TEST(AbTestUnderFaultsTest, CompletesEveryRequestAndReplaysBitIdentically) {
  data::ScenarioConfig cfg;
  cfg.num_queries = 150;
  cfg.num_services = 60;
  cfg.num_intentions = 30;
  cfg.num_trees = 3;
  cfg.num_impressions = 6000;
  cfg.head_fraction = 0.05;
  data::Scenario s = data::GenerateScenario(cfg);

  core::Rng rng(21);
  Matrix query_emb = Matrix::Randn(s.num_queries(), 8, &rng);
  Matrix service_emb = Matrix::Randn(s.num_services(), 8, &rng);

  auto make_arm = [&] {
    auto arm = std::make_unique<ResilientRanker>(
        EmbeddingStore(query_emb), EmbeddingStore(service_emb));
    // Yesterday's dump is missing the last 30% of query ids.
    const size_t keep = s.num_queries() * 7 / 10;
    Matrix stale(keep, 8);
    for (size_t i = 0; i < keep; ++i) stale.CopyRowFrom(query_emb, i, i);
    arm->SetStaleSnapshot(EmbeddingStore(std::move(stale)));
    arm->SetHeadAnchors(
        models::AnchorHeadOf(models::MineKtclAnchors(s), s.num_queries()));
    std::vector<std::string> names;
    std::vector<double> popularity;
    for (const auto& meta : s.services) {
      names.push_back(meta.name);
      popularity.push_back(static_cast<double>(meta.mau));
    }
    arm->SetTextFallback(std::make_shared<TextRanker>(s.query_text, names));
    arm->SetPopularityFallback(std::make_shared<PopularityRanker>(popularity));
    return arm;
  };
  auto baseline = make_arm();
  auto treatment = make_arm();

  // 20% lookup failures plus cold-start misses (acceptance criterion).
  FaultProfile profile;
  profile.seed = 404;
  profile.lookup_failure_rate = 0.20;
  profile.missing_id_rate = 0.10;
  profile.bit_flip_rate = 0.05;
  AbTestConfig ab;
  ab.num_days = 2;
  ab.requests_per_day = 400;
  ab.fault_profile = &profile;

  AbTestResult r1 = RunAbTest(s, *baseline, *treatment, ab);
  ServingHealth h1 = treatment->health();
  // 100% of requests completed, each by exactly one tier; no aborts.
  EXPECT_EQ(h1.requests, ab.num_days * ab.requests_per_day);
  uint64_t served = 0;
  for (uint64_t c : h1.served_at_tier) served += c;
  EXPECT_EQ(served, h1.requests);
  EXPECT_GT(h1.transient_failures, 0u);
  EXPECT_LT(h1.served_at_tier[0], h1.requests);  // some degradation happened

  AbTestResult r2 = RunAbTest(s, *baseline, *treatment, ab);
  ServingHealth h2 = treatment->health();
  EXPECT_EQ(h1.ToString(), h2.ToString());
  for (size_t d = 0; d < ab.num_days; ++d) {
    EXPECT_DOUBLE_EQ(r1.baseline[d].ctr, r2.baseline[d].ctr);
    EXPECT_DOUBLE_EQ(r1.treatment[d].ctr, r2.treatment[d].ctr);
    EXPECT_DOUBLE_EQ(r1.treatment[d].valid_ctr, r2.treatment[d].valid_ctr);
  }
}

TEST(PopularityRankerTest, FixedOrderingForEveryQuery) {
  PopularityRanker ranker({1.0, 9.0, 4.0, 9.0});
  RankedList a = ranker.Rank(0, 3);
  RankedList b = ranker.Rank(123, 3);
  EXPECT_EQ(a, b);
  ASSERT_EQ(a.size(), 3u);
  EXPECT_EQ(a[0].first, 1u);  // ties broken by id
  EXPECT_EQ(a[1].first, 3u);
  EXPECT_EQ(a[2].first, 2u);
}

TEST(FallbackRankerTest, AnswersHoldOnlyTheirKEntriesOverLargeCatalog) {
  // A 20k-service catalog: an answer must not keep the catalog-sized
  // scratch (or a resized copy of the full ranking) alive as capacity, and
  // its entries must be exactly the head of the full ranking.
  constexpr size_t kCatalog = 20000;
  core::Rng rng(77);
  std::vector<double> popularity(kCatalog);
  std::vector<std::string> names(kCatalog);
  const char* words[] = {"coffee", "laundry", "taxi", "pizza", "cinema",
                         "hotel",  "bank",    "gym",  "florist", "bakery"};
  for (size_t s = 0; s < kCatalog; ++s) {
    popularity[s] = static_cast<double>(rng.UniformInt(uint64_t{500}));
    names[s] = std::string(words[s % 10]) + " " + words[(s / 10) % 10] +
               " " + std::to_string(s % 37);
  }
  PopularityRanker popular(popularity);
  TextRanker text({"coffee bakery", "late night taxi"}, names);

  // Reference popularity order: score descending, ties by ascending id.
  std::vector<uint32_t> order(kCatalog);
  for (size_t s = 0; s < kCatalog; ++s) order[s] = static_cast<uint32_t>(s);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return popularity[a] > popularity[b];
  });

  const RankedList text_full = text.Rank(1, kCatalog);
  ASSERT_EQ(text_full.size(), kCatalog);
  for (size_t k : {size_t{1}, size_t{10}, size_t{100}}) {
    const RankedList p = popular.Rank(0, k);
    ASSERT_EQ(p.size(), k);
    EXPECT_LE(p.capacity(), k);
    for (size_t i = 0; i < k; ++i) {
      EXPECT_EQ(p[i].first, order[i]) << "k=" << k << " rank " << i;
      EXPECT_EQ(p[i].second, static_cast<float>(popularity[order[i]]));
    }

    const RankedList t = text.Rank(1, k);
    ASSERT_EQ(t.size(), k);
    EXPECT_LE(t.capacity(), k);
    EXPECT_EQ(t, RankedList(text_full.begin(), text_full.begin() + k))
        << "k=" << k;
  }
}

}  // namespace
}  // namespace garcia::serving
