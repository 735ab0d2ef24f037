#include "serving/resilient_ranker.h"

#include <algorithm>
#include <cmath>

#include "core/kernels.h"
#include "serving/ivf_index.h"

namespace garcia::serving {

bool RowLooksValid(const float* row, size_t dim) {
  for (size_t i = 0; i < dim; ++i) {
    if (!std::isfinite(row[i]) || std::fabs(row[i]) > 1e30f) return false;
  }
  return true;
}

// ---------------------------------------------------------------- TextRanker

TextRanker::TextRanker(std::vector<std::string> query_texts,
                       const std::vector<std::string>& service_texts)
    : query_texts_(std::move(query_texts)),
      service_embeddings_(encoder_.EncodeBatch(service_texts)) {}

RankedList TextRanker::Rank(uint32_t query, size_t k) const {
  RankedList scored;
  scored.reserve(service_embeddings_.size());
  const models::SparseVector q_emb =
      query < query_texts_.size() ? encoder_.Encode(query_texts_[query])
                                  : models::SparseVector{};
  for (size_t s = 0; s < service_embeddings_.size(); ++s) {
    const double sim =
        models::NgramTextEncoder::Cosine(q_emb, service_embeddings_[s]);
    scored.push_back({static_cast<uint32_t>(s), static_cast<float>(sim)});
  }
  k = std::min(k, scored.size());
  std::partial_sort(scored.begin(), scored.begin() + k, scored.end(),
                    core::kernels::RanksBefore);
  // An answer-sized copy, so the catalog-sized scratch is not kept alive.
  return RankedList(scored.begin(), scored.begin() + k);
}

// ---------------------------------------------------------- PopularityRanker

PopularityRanker::PopularityRanker(const std::vector<double>& popularity) {
  ranked_.reserve(popularity.size());
  for (size_t s = 0; s < popularity.size(); ++s) {
    ranked_.push_back(
        {static_cast<uint32_t>(s), static_cast<float>(popularity[s])});
  }
  std::stable_sort(ranked_.begin(), ranked_.end(),
                   core::kernels::RanksBefore);
}

RankedList PopularityRanker::Rank(uint32_t /*query*/, size_t k) const {
  // Copy only the answer: callers may hold many answers at once, and each
  // must not carry the catalog-sized capacity of ranked_.
  return RankedList(ranked_.begin(),
                    ranked_.begin() + std::min(k, ranked_.size()));
}

// ----------------------------------------------------------- ResilientRanker

ResilientRanker::ResilientRanker(EmbeddingStore fresh_queries,
                                 EmbeddingStore services,
                                 ResilienceConfig config)
    : fresh_(std::move(fresh_queries)),
      services_(std::move(services)),
      config_(config),
      breaker_(config.breaker, &clock_) {
  GARCIA_CHECK(!services_.empty());
  GARCIA_CHECK(fresh_.empty() || fresh_.dim() == services_.dim());
  // Default terminal tier: uniform popularity = deterministic id order.
  popularity_ = std::make_shared<PopularityRanker>(
      std::vector<double>(services_.size(), 1.0));
}

void ResilientRanker::SetFaultProfile(const FaultProfile& profile) {
  std::lock_guard<std::mutex> lock(mu_);
  injector_.emplace(&fresh_, profile);
}

void ResilientRanker::SetStaleSnapshot(EmbeddingStore stale_queries) {
  GARCIA_CHECK(stale_queries.empty() ||
               stale_queries.dim() == services_.dim());
  stale_ = std::move(stale_queries);
}

void ResilientRanker::SetHeadAnchors(std::vector<int32_t> head_anchor_of) {
  head_anchor_of_ = std::move(head_anchor_of);
}

void ResilientRanker::SetTextFallback(
    std::shared_ptr<const Ranker> text_ranker) {
  text_ = std::move(text_ranker);
}

void ResilientRanker::SetPopularityFallback(
    std::shared_ptr<const Ranker> popularity_ranker) {
  GARCIA_CHECK(popularity_ranker != nullptr);
  popularity_ = std::move(popularity_ranker);
}

void ResilientRanker::SetRetrievalIndex(std::shared_ptr<const IvfIndex> index,
                                        size_t nprobe, size_t rerank_k) {
  GARCIA_CHECK(index != nullptr);
  // The index must cover exactly this catalog: same dimensionality and the
  // same id space, or probed ids would name different services.
  GARCIA_CHECK_EQ(index->dim(), services_.dim());
  GARCIA_CHECK_EQ(index->size(), services_.size());
  // The index scores approximately and re-ranks exactly against the
  // original rows — installing one without its re-rank source would fail
  // on the first request, so fail here instead.
  GARCIA_CHECK(index->has_rerank_catalog())
      << "index installed without a re-rank catalog";
  index_ = std::move(index);
  index_nprobe_ = nprobe;
  index_rerank_k_ = rerank_k;
  std::lock_guard<std::mutex> lock(mu_);
  health_.index_memory_bytes = index_->MemoryBytes();
}

core::Status ResilientRanker::LoadRetrievalIndex(const std::string& path,
                                                 size_t nprobe,
                                                 size_t rerank_k) {
  auto loaded = IvfIndex::Load(path);
  if (!loaded.ok()) {
    std::lock_guard<std::mutex> lock(mu_);
    ++health_.index_load_failures;
    return loaded.status();
  }
  auto index = std::make_shared<IvfIndex>(std::move(loaded.value()));
  // A GIV2 dump carries codes + scales only; the exact re-rank stage reads
  // this ranker's own service catalog (the dump must cover the same
  // catalog — SetRetrievalIndex CHECKs the shape).
  index->AttachRerankCatalog(services_.matrix());
  SetRetrievalIndex(std::move(index), nprobe, rerank_k);
  return core::Status::Ok();
}

LookupOutcome ResilientRanker::RawLookup(uint32_t id) const {
  if (injector_.has_value()) return injector_->Lookup(id);
  LookupOutcome out;
  out.row = fresh_.Find(id);
  out.status = out.row != nullptr
                   ? core::Status::Ok()
                   : core::Status::NotFound("id not in store");
  return out;
}

const float* ResilientRanker::FreshLookup(uint32_t query,
                                          DeadlineBudget* budget,
                                          core::Rng* backoff_rng) const {
  for (size_t attempt = 0; attempt < config_.max_attempts; ++attempt) {
    if (budget->expired()) {
      ++health_.deadline_exceeded;
      return nullptr;
    }
    if (!breaker_.AllowRequest()) {
      ++health_.breaker_short_circuits;
      return nullptr;
    }
    ++health_.attempts;
    LookupOutcome outcome = RawLookup(query);
    clock_.SleepMicros(outcome.latency_micros);
    if (budget->expired()) {
      // The lookup answered too late (e.g. a latency spike ate the whole
      // budget); the caller cannot use it and the store gets the blame.
      breaker_.RecordFailure();
      ++health_.deadline_exceeded;
      return nullptr;
    }
    if (outcome.status.ok()) {
      if (RowLooksValid(outcome.row, services_.dim())) {
        breaker_.RecordSuccess();
        return outcome.row;
      }
      // Corrupt row: the store responded, but with garbage. Retryable when
      // the corruption is transient (our bit-flip model).
      ++health_.corrupt_rows;
      breaker_.RecordFailure();
    } else if (outcome.status.code() == core::StatusCode::kNotFound) {
      // A miss is an authoritative answer, not a store failure: the id is
      // simply not in the dump (cold-start tail query). Not retryable.
      ++health_.missing_ids;
      breaker_.RecordSuccess();
      return nullptr;
    } else {
      ++health_.transient_failures;
      breaker_.RecordFailure();
    }
    if (attempt + 1 < config_.max_attempts) {
      const uint64_t delay =
          core::BackoffDelayMicros(config_.backoff, attempt, backoff_rng);
      if (delay >= budget->remaining_micros()) {
        ++health_.deadline_exceeded;
        return nullptr;
      }
      clock_.SleepMicros(delay);
      ++health_.retries;
    }
  }
  return nullptr;
}

ResilientRanker::Resolved ResilientRanker::ResolveRequest(
    uint64_t request_index, uint32_t query) const {
  // Wait for the turn, not for a lock: request t-1's FinishTurn releases
  // exactly this request. (WaitTurn checks that a request index below the
  // gate's turn — a reused index, or Rank() mixed with explicit RankAt()
  // — fails loudly instead of deadlocking the sequence.) The gate makes
  // this resolve the only one in flight, so the mutex below is held only
  // for accessor visibility of the shared counters, never contended by
  // other resolves.
  resolve_gate_.WaitTurn(request_index);
  std::unique_lock<std::mutex> lock(mu_);

  clock_.AdvanceMicros(config_.inter_request_micros);
  ++health_.requests;
  DeadlineBudget budget(&clock_, config_.deadline_micros);
  // Per-request streams: the request's fault and jitter draws depend only
  // on (seeds, index), never on what other requests consumed.
  if (injector_.has_value()) injector_->BeginRequest(request_index);
  core::Rng backoff_rng(
      PerRequestSeed(config_.seed ^ run_seed_, request_index));

  // Tier 0: fresh store, with retries / breaker / deadline.
  ServingTier tier = ServingTier::kFresh;
  const float* vec = FreshLookup(query, &budget, &backoff_rng);

  // Tier 1: stale snapshot. Plain local read: yesterday's dump is already
  // resident, so none of the remote-store failure modes apply.
  if (vec == nullptr && stale_.has_value()) {
    const float* stale_row = stale_->Find(query);
    if (stale_row != nullptr && RowLooksValid(stale_row, services_.dim())) {
      vec = stale_row;
      tier = ServingTier::kStale;
    }
  }

  // Tier 2: mined head-anchor embedding. Head queries are ~always present
  // in every dump; one non-retried lookup (fresh path first, then stale).
  if (vec == nullptr && query < head_anchor_of_.size() &&
      head_anchor_of_[query] >= 0) {
    const uint32_t head = static_cast<uint32_t>(head_anchor_of_[query]);
    const float* head_row = nullptr;
    if (!budget.expired() && breaker_.AllowRequest()) {
      ++health_.attempts;
      LookupOutcome outcome = RawLookup(head);
      clock_.SleepMicros(outcome.latency_micros);
      if (outcome.status.ok() &&
          RowLooksValid(outcome.row, services_.dim())) {
        breaker_.RecordSuccess();
        head_row = outcome.row;
      } else if (!outcome.status.ok() &&
                 outcome.status.code() != core::StatusCode::kNotFound) {
        breaker_.RecordFailure();
      }
    }
    if (head_row == nullptr && stale_.has_value()) {
      head_row = stale_->Find(head);
      if (head_row != nullptr && !RowLooksValid(head_row, services_.dim())) {
        head_row = nullptr;
      }
    }
    if (head_row != nullptr) {
      vec = head_row;
      tier = ServingTier::kHeadAnchor;
    }
  }

  Resolved out;
  if (vec != nullptr) {
    out.tier = tier;
    out.embedding.assign(vec, vec + services_.dim());
  } else {
    out.tier =
        text_ != nullptr ? ServingTier::kText : ServingTier::kPopularity;
  }
  lock.unlock();
  resolve_gate_.FinishTurn(request_index);
  return out;
}

RankedList ResilientRanker::RankAt(uint64_t request_index, uint32_t query,
                                   size_t k,
                                   ServingTier* served_tier) const {
  Resolved r = ResolveRequest(request_index, query);

  // Score outside the lock: the top-K probe/scan over the service catalog
  // is the expensive part, is independent across requests, and overlaps
  // with the store I/O of later requests' resolve phases. When an IVF
  // index is installed it is the fresh scoring path; the brute-force scan
  // is its always-correct degradation fallback. Neither choice touches the
  // resolve phase, so the tier sequence is scoring-path-independent.
  ServingTier tier = r.tier;
  const bool via_index = !r.embedding.empty() && index_ != nullptr;
  RankedList result;
  IvfIndex::QueryStats qstats;
  if (via_index) {
    result = index_->Query(
        core::CurrentExecution(), r.embedding.data(), k,
        index_nprobe_ != 0 ? index_nprobe_ : index_->default_nprobe(),
        index_rerank_k_ != 0 ? index_rerank_k_ : index_->default_rerank_k(),
        &qstats);
  } else if (!r.embedding.empty()) {
    result = TopKInnerProduct(r.embedding.data(), services_.dim(),
                              services_.matrix(), k);
  } else if (tier == ServingTier::kText) {
    result = text_->Rank(query, k);
  } else {
    result = popularity_->Rank(query, k);
  }
  // An embedding-free tier that still produced nothing (e.g. empty query
  // text) falls through to the popularity prior.
  if (result.empty() && tier != ServingTier::kPopularity) {
    tier = ServingTier::kPopularity;
    result = popularity_->Rank(query, k);
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++health_.served_at_tier[static_cast<size_t>(tier)];
    if (!r.embedding.empty()) {
      ++(via_index ? health_.scored_via_index : health_.scored_brute_force);
    }
    if (via_index) {
      ++health_.quantized_scans;
      health_.rerank_rows += qstats.rerank_rows;
    }
  }
  if (served_tier != nullptr) *served_tier = tier;
  return result;
}

RankedList ResilientRanker::RankAt(uint64_t request_index, uint32_t query,
                                   size_t k) const {
  return RankAt(request_index, query, k, nullptr);
}

RankedList ResilientRanker::Rank(uint32_t query, size_t k) const {
  const uint64_t request_index =
      next_arrival_index_.fetch_add(1, std::memory_order_relaxed);
  return RankAt(request_index, query, k, nullptr);
}

void ResilientRanker::PrepareForRun(const FaultProfile* profile,
                                    uint64_t seed) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (profile != nullptr) {
    injector_.emplace(&fresh_, *profile);
  } else if (injector_.has_value()) {
    injector_->Reset();
  }
  clock_.Reset();
  breaker_.Reset();
  health_.Reset();
  // The installed index survives runs; its footprint is a gauge, not a
  // per-run counter.
  if (index_ != nullptr) health_.index_memory_bytes = index_->MemoryBytes();
  next_arrival_index_.store(0, std::memory_order_relaxed);
  resolve_gate_.Reset(0);
  run_seed_ = seed;
}

ServingHealth ResilientRanker::health() const {
  std::lock_guard<std::mutex> lock(mu_);
  ServingHealth snapshot = health_;
  snapshot.breaker_to_open = breaker_.transitions_to_open();
  snapshot.breaker_to_half_open = breaker_.transitions_to_half_open();
  snapshot.breaker_to_closed = breaker_.transitions_to_closed();
  return snapshot;
}

CircuitBreaker::State ResilientRanker::breaker_state() const {
  std::lock_guard<std::mutex> lock(mu_);
  return breaker_.state();
}

uint64_t ResilientRanker::clock_micros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return clock_.NowMicros();
}

void ResilientRanker::AdvanceClockMicros(uint64_t micros) const {
  std::lock_guard<std::mutex> lock(mu_);
  clock_.AdvanceMicros(micros);
}

}  // namespace garcia::serving
