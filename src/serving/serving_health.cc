#include "serving/serving_health.h"

#include <sstream>

#include "core/logging.h"

namespace garcia::serving {

const char* ServingTierName(ServingTier tier) {
  switch (tier) {
    case ServingTier::kFresh:
      return "fresh";
    case ServingTier::kStale:
      return "stale";
    case ServingTier::kHeadAnchor:
      return "head-anchor";
    case ServingTier::kText:
      return "text";
    case ServingTier::kPopularity:
      return "popularity";
  }
  return "unknown";
}

double ServingHealth::MeanFallbackDepth() const {
  uint64_t served = 0, weighted = 0;
  for (size_t t = 0; t < kNumServingTiers; ++t) {
    served += served_at_tier[t];
    weighted += served_at_tier[t] * t;
  }
  return served == 0 ? 0.0
                     : static_cast<double>(weighted) /
                           static_cast<double>(served);
}

double ServingHealth::FreshServeRate() const {
  return requests == 0 ? 0.0
                       : static_cast<double>(served_at_tier[0]) /
                             static_cast<double>(requests);
}

std::string ServingHealth::ToString() const {
  std::ostringstream os;
  os << "requests=" << requests << " attempts=" << attempts
     << " retries=" << retries << " transient=" << transient_failures
     << " missing=" << missing_ids << " corrupt=" << corrupt_rows
     << " deadline_exceeded=" << deadline_exceeded
     << " short_circuits=" << breaker_short_circuits << " breaker(open="
     << breaker_to_open << ",half_open=" << breaker_to_half_open
     << ",closed=" << breaker_to_closed << ") tiers[";
  for (size_t t = 0; t < kNumServingTiers; ++t) {
    if (t) os << " ";
    os << ServingTierName(static_cast<ServingTier>(t)) << "="
       << served_at_tier[t];
  }
  os << "] scoring[index=" << scored_via_index
     << ",brute=" << scored_brute_force
     << ",index_load_failures=" << index_load_failures
     << "] sq8[scans=" << quantized_scans << ",rerank_rows=" << rerank_rows
     << "] index_memory_bytes=" << index_memory_bytes
     << " cache[hits=" << cache_hits << ",bytes=" << cache_bytes << "]"
     << " mean_depth=" << MeanFallbackDepth();
  return os.str();
}

void ServingHealth::Log() const {
  GARCIA_LOG(Info) << "serving health: " << ToString();
}

}  // namespace garcia::serving
