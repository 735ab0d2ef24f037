// Copyright (c) 2026 GARCIA reproduction authors.
// Concurrent batched serving.
//
// BatchRanker is one facade that accepts a batch of requests and runs them
// through a Ranker either serially or on a private thread pool (one
// request per task; every kernel inside a request is serial). The results
// (and, for ResilientRanker, the per-request tier decisions and health
// counters) are bit-identical to a serial pass for any thread count and
// batch size.
//
// How that works: every request gets a monotonically increasing index from
// the facade's stream. Stateless rankers ignore it; ResilientRanker keys
// its per-request fault/backoff streams on it and resolves shared state in
// ascending index order (DESIGN.md §5f). Workers claim indices through an
// atomic cursor — ascending claim order — so request i's sequenced resolve
// phase overlaps with the top-K scoring of earlier requests instead of
// waiting behind a whole contiguous shard.

#ifndef GARCIA_SERVING_BATCH_RANKER_H_
#define GARCIA_SERVING_BATCH_RANKER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/threadpool.h"
#include "serving/ranking_service.h"

namespace garcia::serving {

/// One serving request: rank the top `k` services for `query`.
struct ServeRequest {
  uint32_t query = 0;
  size_t k = 10;
};

/// Batched-serving knobs, plumbed through RunAbTest and the bench driver.
struct ServeConfig {
  /// Worker threads for request-level parallelism. 0 or 1 serves inline on
  /// the calling thread (the serial reference path).
  size_t num_threads = 0;
  /// Requests dispatched per scheduling wave. Results are identical for any
  /// value; smaller waves bound the latency skew between the first and last
  /// request of a wave, larger waves amortize pool wake-ups.
  size_t batch_size = 256;
};

/// Facade that fans a vector of requests out over a (possibly concurrent)
/// Ranker. Owns its thread pool when num_threads > 1. One dispatcher: the
/// facade itself is not re-entrant — issue one RankBatch() at a time (the
/// wrapped Ranker may additionally be hammered from other threads if it is
/// thread-safe, as ResilientRanker is).
class BatchRanker {
 public:
  explicit BatchRanker(std::shared_ptr<const Ranker> ranker,
                       ServeConfig config = {});

  /// Drains any in-flight asynchronous work and tears the owned pool down
  /// BEFORE any other member. The default member-destruction order would
  /// destroy state declared after the pool while stragglers (and their
  /// latency-sink / completion callbacks) can still be executing queued
  /// tasks inside the pool's shutdown path — a use-after-destruction the
  /// explicit ordering here closes (regression-tested by destroying the
  /// facade mid-flight under ASan).
  ~BatchRanker();

  BatchRanker(const BatchRanker&) = delete;
  BatchRanker& operator=(const BatchRanker&) = delete;

  /// Ranks every request; result i corresponds to requests[i]. Request
  /// indices continue the facade's stream: the j-th request ever submitted
  /// (since construction or Reset()) gets index j, matching what a serial
  /// pass over the same requests would hand the ranker.
  std::vector<RankedList> RankBatch(const std::vector<ServeRequest>& requests);

  /// Same, and when `latency_micros` is non-null also records the
  /// wall-clock service time of each request (bench telemetry; excluded
  /// from the determinism contract).
  std::vector<RankedList> RankBatch(const std::vector<ServeRequest>& requests,
                                    std::vector<double>* latency_micros);

  /// Per-request completion callback of the asynchronous path. Runs on the
  /// worker that served the request; must be thread-safe. `i` is the
  /// position in the submitted batch.
  using LatencySink = std::function<void(size_t i, double micros)>;

  /// Asynchronous batch: dispatches and returns immediately (serial
  /// configurations serve inline before returning). results->at(i) is
  /// written by the worker serving request i; `sink`, when set, fires per
  /// completed request. The caller keeps `results` (and anything `sink`
  /// touches) alive until Drain() or destruction; the batch claims its
  /// request indices from the facade's stream at call time, so results are
  /// bit-identical to the synchronous path over the same requests.
  void RankBatchAsync(const std::vector<ServeRequest>& requests,
                      std::vector<RankedList>* results,
                      LatencySink sink = nullptr);

  /// Blocks until every request dispatched so far (sync or async) has been
  /// served and its callbacks have returned.
  void Drain();

  /// Rewinds the request-index stream to 0. Pair with the wrapped ranker's
  /// PrepareForRun() when replaying a run. Do not call with async work in
  /// flight (Drain() first).
  void Reset();

  /// Next index the facade will assign.
  uint64_t next_index() const { return next_index_; }

  const ServeConfig& config() const { return config_; }

 private:
  std::shared_ptr<const Ranker> ranker_;
  ServeConfig config_;
  std::unique_ptr<core::ThreadPool> pool_;  // null when serving inline
  uint64_t next_index_ = 0;
};

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_BATCH_RANKER_H_
