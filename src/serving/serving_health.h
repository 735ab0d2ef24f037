// Copyright (c) 2026 GARCIA reproduction authors.
// Serving-side health counters: what the on-call dashboard would show.

#ifndef GARCIA_SERVING_SERVING_HEALTH_H_
#define GARCIA_SERVING_SERVING_HEALTH_H_

#include <array>
#include <cstdint>
#include <string>

namespace garcia::serving {

/// The degradation chain tiers, in order of decreasing fidelity.
enum class ServingTier : int {
  kFresh = 0,       // today's embedding dump
  kStale = 1,       // yesterday's snapshot
  kHeadAnchor = 2,  // mined head-anchor embedding (KTCL machinery)
  kText = 3,        // character-n-gram text encoder
  kPopularity = 4,  // popularity prior
};
constexpr size_t kNumServingTiers = 5;

const char* ServingTierName(ServingTier tier);

/// Plain counters; the owner (ResilientRanker) serializes updates.
struct ServingHealth {
  uint64_t requests = 0;
  uint64_t attempts = 0;             // primary-store lookup attempts
  uint64_t retries = 0;              // backoff sleeps taken
  uint64_t transient_failures = 0;   // Unavailable outcomes observed
  uint64_t missing_ids = 0;          // cold-start ids absent from the dump
  uint64_t corrupt_rows = 0;         // rows rejected by the finite check
  uint64_t deadline_exceeded = 0;    // requests that ran out of budget
  uint64_t breaker_short_circuits = 0;  // lookups skipped while open
  uint64_t breaker_to_open = 0;
  uint64_t breaker_to_half_open = 0;
  uint64_t breaker_to_closed = 0;
  /// Histogram of which tier finally served each request.
  std::array<uint64_t, kNumServingTiers> served_at_tier{};

  // Scoring path of the embedding tiers: the IVF index is the fresh
  // (sub-linear) path; the brute-force catalog scan is its degradation
  // fallback — always correct, linear in the catalog. An index dump that
  // fails to load (bit flip, truncation) leaves brute force serving and is
  // counted, so the dashboard shows both the cause and the ongoing cost.
  uint64_t scored_via_index = 0;       // embedding requests probed the index
  uint64_t scored_brute_force = 0;     // embedding requests full-scanned
  uint64_t index_load_failures = 0;    // corrupt/unreadable index dumps

  // SQ8 two-stage path (every index probe): how many requests ran the
  // int8 scan, and how many candidate rows the exact re-rank touched in
  // total — rerank_rows / quantized_scans is the mean re-rank depth, the
  // knob-tuning number next to rerank_k. index_memory_bytes is the
  // resident footprint of the installed index (0 = none installed), the
  // dashboard's view of the ~4x SQ8 saving.
  uint64_t quantized_scans = 0;        // requests served by the SQ8 path
  uint64_t rerank_rows = 0;            // exact re-rank rows, summed
  uint64_t index_memory_bytes = 0;     // MemoryBytes() of installed index

  /// Average index of the serving tier (0 = all fresh). The headline
  /// degradation metric.
  double MeanFallbackDepth() const;
  /// Fraction of requests served by the fresh store.
  double FreshServeRate() const;

  std::string ToString() const;
  /// Emits ToString() through core/logging at Info level.
  void Log() const;
  void Reset() { *this = ServingHealth(); }
};

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_SERVING_HEALTH_H_
