// Copyright (c) 2026 GARCIA reproduction authors.
// Fault-tolerant online ranker: retries, circuit breaking, and a GARCIA-
// specific graceful degradation chain.
//
// The chain mirrors how a production deployment of Fig. 9 keeps answering
// when the embedding path fails, in decreasing fidelity:
//   0. fresh   — today's embedding dump (through the fault injector, with a
//                per-request deadline budget, bounded retry with exponential
//                backoff + jitter, and a circuit breaker over the store);
//   1. stale   — yesterday's snapshot (cold-start ids may be absent);
//   2. anchor  — the mined head-anchor query's embedding: the same KTCL
//                anchor pairs that transfer knowledge to tail queries at
//                training time (models/contrastive) stand in at serving
//                time, since the head anchor is ~always in every dump;
//   3. text    — character-n-gram text similarity (models/text_encoder),
//                the encoder-side stand-in for the paper's BERT module;
//   4. popularity — a static popularity prior; always answers.
// Every request is served by some tier: Rank() never aborts.
//
// Concurrency & determinism (DESIGN.md §5f, §5j): Rank()/RankAt() may be
// called from any number of threads. Each request carries an index; its
// fault and backoff draws come from a private stream seeded by (profile
// seed, run seed, index), and the shared mutable state — manual clock,
// circuit breaker, health counters, injector — is advanced in ascending
// index order by a core::TicketGate (per-request countdown handoff:
// request t releases exactly request t+1, no broadcast cv), while the
// expensive top-K scan runs fully concurrent outside both the gate and
// the mutex. A fixed profile + seed therefore yields the same per-request
// tier decision and ranked list for every thread count and interleaving,
// and the breaker/health totals match a serial pass exactly.
//
// Answer cache (DESIGN.md §5o): embedding-tier answers are cached by the
// resolved vector's bytes plus k (serving/answer_cache.h). Hit, admission
// and eviction are decided in the sequenced resolve phase, so the cache
// state — and cache_hits — also depend on the request sequence alone. A
// request that hits a still-pending entry waits for the admitting
// request's scan outside the gate and the mutex (single flight).

#ifndef GARCIA_SERVING_RESILIENT_RANKER_H_
#define GARCIA_SERVING_RESILIENT_RANKER_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "core/backoff.h"
#include "core/clock.h"
#include "core/rng.h"
#include "core/ticket_gate.h"
#include "models/text_encoder.h"
#include "serving/answer_cache.h"
#include "serving/fault_injector.h"
#include "serving/ranking_service.h"
#include "serving/resilience.h"
#include "serving/serving_health.h"

namespace garcia::serving {

/// Tier-3 fallback: ranks services by character-n-gram cosine between the
/// query text and service names. No embeddings involved.
class TextRanker : public Ranker {
 public:
  TextRanker(std::vector<std::string> query_texts,
             const std::vector<std::string>& service_texts);

  RankedList Rank(uint32_t query, size_t k) const override;

 private:
  models::NgramTextEncoder encoder_;
  std::vector<std::string> query_texts_;
  std::vector<models::SparseVector> service_embeddings_;
};

/// Tier-4 fallback: a fixed query-independent ordering by popularity
/// weight (e.g. MAU, exposure, or global CTR). Always answers.
class PopularityRanker : public Ranker {
 public:
  explicit PopularityRanker(const std::vector<double>& popularity);

  RankedList Rank(uint32_t query, size_t k) const override;

 private:
  RankedList ranked_;  // full precomputed ordering
};

struct ResilienceConfig {
  size_t max_attempts = 3;          // primary lookups per request
  uint64_t deadline_micros = 50000; // per-request budget
  core::BackoffConfig backoff;
  BreakerConfig breaker;
  uint64_t seed = 7;                // base of the per-request jitter streams
  /// Simulated time between request arrivals (advanced at the top of each
  /// Rank call). Gives the breaker cooldown a chance to elapse even while
  /// lookups are being short-circuited: 100us ~= a 10k-QPS replica.
  uint64_t inter_request_micros = 100;
};

/// Wraps the EmbeddingRanker scoring path (inner-product top-K over the
/// service matrix) with the fault-tolerance machinery above. Thread-safe
/// and deterministic under concurrency (see the header comment): the
/// resolve phase — fault draws, retries, breaker, tier decision — runs
/// under one mutex in ascending request-index order; scoring runs outside
/// it.
class ResilientRanker : public Ranker {
 public:
  /// Packs `services` into a core::kernels::RowPanel for the brute-force
  /// scan, which CHECKs that every service row is finite (naming the
  /// first row that is not).
  ResilientRanker(EmbeddingStore fresh_queries, EmbeddingStore services,
                  ResilienceConfig config = {});

  // --- optional tiers & fault wiring (call before serving traffic) ---

  /// Routes fresh-store lookups through a seeded FaultInjector.
  void SetFaultProfile(const FaultProfile& profile);
  /// Tier 1: yesterday's query-embedding snapshot.
  void SetStaleSnapshot(EmbeddingStore stale_queries);
  /// Tier 2: head_anchor_of[q] is the mined head-anchor query id of q, or
  /// -1 when no anchor was mined (see models::AnchorHeadOf).
  void SetHeadAnchors(std::vector<int32_t> head_anchor_of);
  /// Tier 3: text-similarity fallback ranker.
  void SetTextFallback(std::shared_ptr<const Ranker> text_ranker);
  /// Tier 4: popularity prior. A uniform prior is installed by default so
  /// the chain always terminates; this replaces it with a real one.
  void SetPopularityFallback(std::shared_ptr<const Ranker> popularity_ranker);

  /// Fresh scoring path: an IVF index over the SAME service catalog
  /// (serving/ivf_index.h). When installed, every embedding-tier request
  /// probes the index (`nprobe` lists; 0 = the index's build-time default)
  /// instead of brute-force scanning the catalog; the scan stays in the
  /// degradation chain as the scoring fallback whenever no index is
  /// installed. The index is immutable and shared — concurrent requests
  /// probe it with no synchronization — and the choice of scoring path
  /// never perturbs the resolve phase, so the per-request TIER sequence
  /// under a fault profile is identical with and without the index.
  /// The index must have its re-rank catalog attached before
  /// installation (CHECKed); `rerank_k` overrides its exact re-rank depth
  /// per request (0 = the index's build-time default).
  /// Installation also records IvfIndex::MemoryBytes() on ServingHealth
  /// and clears the answer cache, whose answers came from the old path.
  void SetRetrievalIndex(std::shared_ptr<const IvfIndex> index,
                         size_t nprobe = 0, size_t rerank_k = 0);

  /// Loads an index dump and installs it via SetRetrievalIndex. A corrupt
  /// dump (bit flip, truncation — rejected by the per-section CRCs) leaves
  /// the brute-force scoring path serving, increments
  /// ServingHealth::index_load_failures, and returns the load error.
  /// The loaded (GIV2) index is attached to this ranker's own service
  /// catalog for the exact re-rank stage before installation.
  core::Status LoadRetrievalIndex(const std::string& path, size_t nprobe = 0,
                                  size_t rerank_k = 0);

  // --- serving ---

  /// Never aborts: every request is answered by some tier (possibly the
  /// popularity prior). Unknown / cold-start ids degrade instead of
  /// crashing. Assigns the next arrival index and forwards to RankAt();
  /// safe to call concurrently, but only explicit-index RankAt() calls are
  /// reproducible across interleavings (arrival order is not).
  RankedList Rank(uint32_t query, size_t k) const override;

  /// Deterministic entry point used by BatchRanker and the stress tests.
  /// Within one run (since construction or the last PrepareForRun) the
  /// caller must cover a dense index range starting at 0 — every index is
  /// resolved exactly once, in ascending order; a gap would block its
  /// successors. Do not mix auto-indexed Rank() and explicit RankAt() in
  /// the same run.
  RankedList RankAt(uint64_t request_index, uint32_t query,
                    size_t k) const override;

  /// RankAt plus the tier that served the request (tests/telemetry).
  RankedList RankAt(uint64_t request_index, uint32_t query, size_t k,
                    ServingTier* served_tier) const;

  /// RunAbTest hook: resets breaker/health/injector/clock, the answer
  /// cache and the request index sequence so runs with the same profile
  /// and seed are bit-identical and every run starts cold; installs
  /// `profile` when set. Must not race in-flight Rank calls.
  void PrepareForRun(const FaultProfile* profile,
                     uint64_t seed) const override;

  /// Snapshot of the health counters (breaker transitions included).
  ServingHealth health() const;
  CircuitBreaker::State breaker_state() const;
  /// Simulated time consumed so far (manual clock only).
  uint64_t clock_micros() const;
  /// Test/simulation helper: lets simulated idle time pass (e.g. so an
  /// open breaker's cooldown can elapse without traffic).
  void AdvanceClockMicros(uint64_t micros) const;

  const ResilienceConfig& config() const { return config_; }

 private:
  /// Outcome of the locked resolve phase: which tier answers and, for the
  /// embedding tiers, the answer cache's verdict plus — unless it hit — a
  /// copy of the query-side vector (copied because the injector's scratch
  /// row and the lock are both released before scoring).
  struct Resolved {
    ServingTier tier = ServingTier::kPopularity;
    std::vector<float> embedding;  // set iff an embedding tier scores
    AnswerCache::Lookup cache;
  };

  /// The sequenced resolve phase: holds the ticket gate's turn for
  /// request_index (so every earlier index has already resolved and later
  /// ones wait their turn), then runs fault draws / retries / breaker /
  /// tier selection, advancing the shared clock exactly like a serial
  /// pass, and consults the answer cache. Only the state mutations are
  /// sequenced; scoring never enters the gate.
  Resolved ResolveRequest(uint64_t request_index, uint32_t query,
                          size_t k) const;

  /// One pass over tier 0 (retry loop). Returns the embedding or nullptr.
  /// backoff_rng is the request's private jitter stream.
  const float* FreshLookup(uint32_t query, DeadlineBudget* budget,
                           core::Rng* backoff_rng) const;
  /// Raw lookup through the injector when set, else the plain store.
  LookupOutcome RawLookup(uint32_t id) const;

  EmbeddingStore fresh_;
  EmbeddingStore services_;
  /// services_ packed once for the brute-force fresh scan. services_ is
  /// set only here, so the panel never goes stale.
  core::kernels::RowPanel services_panel_;
  ResilienceConfig config_;

  std::optional<EmbeddingStore> stale_;
  std::vector<int32_t> head_anchor_of_;
  std::shared_ptr<const Ranker> text_;
  std::shared_ptr<const Ranker> popularity_;
  /// Fresh scoring path (null = brute-force scan). Set before serving
  /// traffic, immutable afterwards, like the tiers above.
  std::shared_ptr<const IvfIndex> index_;
  size_t index_nprobe_ = 0;    // 0 = index default
  size_t index_rerank_k_ = 0;  // 0 = index default

  /// Guards the shared mutable state below for accessor visibility
  /// (health(), breaker_state(), ...). The resolve phase itself is
  /// serialized by resolve_gate_, so mu_ is only ever held briefly —
  /// accessors no longer block behind a resolve's backoff sleeps.
  mutable std::mutex mu_;
  /// Ascending-index handoff for the resolve phase: request t's resolve
  /// releases exactly request t+1 (DESIGN.md §5j release rules).
  mutable core::TicketGate resolve_gate_;
  mutable std::atomic<uint64_t> next_arrival_index_{0};  // handed out by Rank()
  mutable uint64_t run_seed_ = 0;  // from PrepareForRun
  mutable core::ManualClock clock_;
  mutable std::optional<FaultInjector> injector_;
  mutable CircuitBreaker breaker_;
  mutable ServingHealth health_;
  mutable AnswerCache cache_;
};

/// True when every entry of the row is finite and sane (|x| < 1e30).
/// Catches the bit-flip corruption mode before a poisoned embedding is
/// scored against the whole service catalog.
bool RowLooksValid(const float* row, size_t dim);

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_RESILIENT_RANKER_H_
