#include "serving/answer_cache.h"

#include <cstring>

namespace garcia::serving {

namespace {

/// SplitMix64's finalizer.
uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

uint64_t HashKey(const float* row, size_t dim, size_t k) {
  const auto* bytes = reinterpret_cast<const unsigned char*>(row);
  const size_t n = dim * sizeof(float);
  uint64_t h = Mix(0x9E3779B97F4A7C15ULL ^ k);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, bytes + i, 8);
    h = Mix(h ^ word);
  }
  if (i < n) {
    uint64_t word = 0;
    std::memcpy(&word, bytes + i, n - i);
    h = Mix(h ^ word);
  }
  return h;
}

}  // namespace

bool AnswerCache::KeyRefEq::operator()(const KeyRef& a,
                                       const KeyRef& b) const {
  // Bytes, not float ==: -0.0 and 0.0 are different keys.
  return a.hash == b.hash && a.k == b.k && a.dim == b.dim &&
         std::memcmp(a.row, b.row, a.dim * sizeof(float)) == 0;
}

AnswerCache::Lookup AnswerCache::Resolve(const float* row, size_t dim,
                                         size_t k, size_t answer_size) {
  const uint64_t hash = HashKey(row, dim, k);
  Lookup out;
  if (auto it = index_.find(KeyRef{hash, row, dim, k}); it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    out.answer = it->second->answer;
    return out;
  }
  if (sightings_.empty()) sightings_.assign(kSightingSlots, 0);
  uint64_t& slot = sightings_[hash % kSightingSlots];
  const size_t cost = sizeof(Entry) + dim * sizeof(float) +
                      answer_size * sizeof(RankedList::value_type);
  if (slot != hash || cost > kBudgetBytes) {
    slot = hash;
    return out;
  }
  while (bytes_ + cost > kBudgetBytes) EvictLeastRecent();
  out.fill.emplace();
  lru_.push_front(Entry{std::vector<float>(row, row + dim), k, hash, cost,
                        out.fill->get_future().share()});
  const Entry& e = lru_.front();
  index_.emplace(KeyRef{hash, e.key.data(), dim, k}, lru_.begin());
  bytes_ += cost;
  return out;
}

void AnswerCache::EvictLeastRecent() {
  const Entry& e = lru_.back();
  index_.erase(KeyRef{e.hash, e.key.data(), e.key.size(), e.k});
  bytes_ -= e.bytes;
  lru_.pop_back();
}

}  // namespace garcia::serving
