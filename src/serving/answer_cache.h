// Copyright (c) 2026 GARCIA reproduction authors.
// Bounded, deterministic answer cache for ResilientRanker's embedding tiers
// (DESIGN.md §5o).
//
// An embedding-tier answer is a pure function of the resolved query vector
// and k: the catalog is immutable, and the only other inputs — the
// installed index and its nprobe / rerank_k — clear the cache when they
// change. So the key is the vector's bytes plus k, and a hit is matched on
// the full key bytes (the 64-bit hash only picks the bucket). Keying by
// content, not by query id, lets fresh-, stale- and anchor-tier requests
// that resolve to the same vector share one entry.
//
// Policy:
//   * admission on the second sighting: a fixed, lossy table of key hashes
//     records first sightings, and only a key seen again is admitted. Tail
//     queries are mostly one-hit, so admitting everything would fill the
//     budget with answers nobody reuses (TinyLFU's doorkeeper, Einziger et
//     al., ACM TOS 2017);
//   * single flight: the admitting request gets a promise; the entry holds
//     its shared_future, so later requests for the key wait for that one
//     scan instead of running their own;
//   * a fixed byte budget, least recently resolved entry evicted first.
//
// Not thread-safe: the owner calls Resolve() from its sequenced resolve
// phase, so every admission, hit and eviction happens in request order and
// the cache state is a function of the request sequence alone. The
// promises and futures it hands out are safe to use from any thread.

#ifndef GARCIA_SERVING_ANSWER_CACHE_H_
#define GARCIA_SERVING_ANSWER_CACHE_H_

#include <cstddef>
#include <cstdint>
#include <future>
#include <list>
#include <optional>
#include <unordered_map>
#include <vector>

#include "serving/ranking_service.h"

namespace garcia::serving {

class AnswerCache {
 public:
  /// Budget over every entry's key bytes, answer bytes and the entry
  /// itself. The first-sighting table (kSightingSlots hashes) comes on top.
  static constexpr size_t kBudgetBytes = size_t{4} << 20;
  static constexpr size_t kSightingSlots = size_t{1} << 14;

  /// Outcome of one Resolve(). Neither field set: a first sighting (or an
  /// answer larger than the whole budget) — score it and cache nothing.
  struct Lookup {
    /// Valid on a hit; still pending while the admitting request scores.
    std::shared_future<RankedList> answer;
    /// Set when this request admitted the key: fulfil it with the answer.
    /// (Abandoning it makes the waiters rethrow instead of hang.)
    std::optional<std::promise<RankedList>> fill;
  };

  /// Looks up the key (row[0..dim), k), whose answer will hold
  /// `answer_size` entries, and marks it most recently resolved.
  Lookup Resolve(const float* row, size_t dim, size_t k, size_t answer_size);

  /// Drops every entry and every recorded sighting, and frees their memory.
  void Clear() { *this = AnswerCache(); }

  /// Bytes charged against kBudgetBytes by the resident entries.
  size_t bytes() const { return bytes_; }

 private:
  struct Entry {
    std::vector<float> key;
    size_t k = 0;
    uint64_t hash = 0;
    size_t bytes = 0;
    std::shared_future<RankedList> answer;
  };
  /// A key by reference: the probe's resolved row, or an entry's own copy.
  struct KeyRef {
    uint64_t hash;
    const float* row;
    size_t dim;
    size_t k;
  };
  struct KeyRefHash {
    size_t operator()(const KeyRef& key) const { return key.hash; }
  };
  struct KeyRefEq {
    bool operator()(const KeyRef& a, const KeyRef& b) const;
  };
  using Lru = std::list<Entry>;  // front = most recently resolved

  void EvictLeastRecent();

  Lru lru_;
  std::unordered_map<KeyRef, Lru::iterator, KeyRefHash, KeyRefEq> index_;
  std::vector<uint64_t> sightings_;  // allocated on the first miss
  size_t bytes_ = 0;
};

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_ANSWER_CACHE_H_
