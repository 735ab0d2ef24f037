// Copyright (c) 2026 GARCIA reproduction authors.
// Online ranking module (Fig. 9): "once a new-coming user issues a request,
// efficient embedding retrieval and similarity calculation are successively
// employed ... the system only keeps top K services with the highest
// similarities".

#ifndef GARCIA_SERVING_RANKING_SERVICE_H_
#define GARCIA_SERVING_RANKING_SERVICE_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/kernels.h"
#include "serving/embedding_store.h"

namespace garcia::serving {

struct FaultProfile;  // serving/fault_injector.h
class IvfIndex;       // serving/ivf_index.h

/// (service id, score), sorted by descending score.
using RankedList = std::vector<std::pair<uint32_t, float>>;

/// How the serving stack retrieves top-K candidates from the catalog.
enum class RetrievalMode : int {
  /// Exact brute-force scan (core::kernels::TopKDot) — the recall oracle.
  kBruteForce = 0,
  /// IVF clustered index with SQ8-quantized list storage
  /// (serving/ivf_index.h): sub-linear probing, an int8 list scan, and a
  /// band-guaranteed exact re-rank — the exact top-k of the probed lists
  /// at every (nprobe, rerank_k >= k), byte-identical to brute force at
  /// nprobe == nlist.
  kIvfSq8 = 2,
};

const char* RetrievalModeName(RetrievalMode mode);

/// Retrieval knobs, plumbed through EmbeddingRanker / ResilientRanker and
/// the bench drivers. The defaults (0) auto-resolve against the catalog:
/// see IvfIndex::ResolveNlist / ResolveNprobe.
struct RetrievalConfig {
  RetrievalMode mode = RetrievalMode::kBruteForce;
  size_t nlist = 0;    // 0 = round(sqrt(catalog rows))
  size_t nprobe = 0;   // 0 = max(1, nlist / 4)
  size_t rerank_k = 0; // exact re-rank depth; 0 = max(4k, 32),
                       // nonzero clamps up to k (IvfIndex::ResolveRerankK)
  uint64_t seed = 13;  // k-means init stream
};

/// Exact inner-product top-K over a candidate matrix, the oracle serving
/// answers are checked against: every row scored with
/// core::kernels::DotRowDouble, then a std::partial_sort of min(k, rows)
/// under core::kernels::RanksBefore (descending score, ties by ascending
/// service id). Deliberately naive: it shares no scan driver, heap or
/// vector scorer with the served paths (core::kernels::TopKDot over a
/// RowPanel, IvfIndex), so a bug in them cannot hide in it. Scores must
/// not be NaN.
RankedList TopKInnerProduct(const float* query_vec, size_t dim,
                            const core::Matrix& candidates, size_t k);

/// Anything that can rank services for a query (A/B arms implement this).
class Ranker {
 public:
  virtual ~Ranker() = default;
  virtual RankedList Rank(uint32_t query, size_t k) const = 0;

  /// Indexed entry point used by the batched serving path (BatchRanker).
  /// `request_index` identifies the request's position in the serving
  /// sequence; stateful rankers (ResilientRanker) key their per-request
  /// fault/backoff streams and their resolve order on it, which is what
  /// makes concurrent serving bit-identical to a serial pass over the same
  /// indices. Stateless rankers ignore it. Implementations must be safe to
  /// call concurrently from multiple threads.
  virtual RankedList RankAt(uint64_t /*request_index*/, uint32_t query,
                            size_t k) const {
    return Rank(query, k);
  }

  /// Called by RunAbTest before the first request of a run. Fault-aware
  /// rankers (ResilientRanker) override this to install `profile` (may be
  /// null) and reset their injector / breaker / health state so that runs
  /// are bit-identical for a fixed profile and seed. Default: no-op.
  virtual void PrepareForRun(const FaultProfile* /*profile*/,
                             uint64_t /*seed*/) const {}
};

/// Embedding-retrieval ranker: score(q, s) = <z_q, z_s> (the paper's online
/// inner-product variant of Eq. 12). Default construction packs the service
/// catalog once into a core::kernels::RowPanel (CHECKing that every row is
/// finite) and scans the panel per request; passing a RetrievalConfig with
/// RetrievalMode::kIvfSq8 builds an IvfIndex over the catalog at
/// construction and probes it instead (brute force stays one knob away as
/// the recall oracle; the index re-ranks against the service store's own
/// matrix, which this ranker owns). The index is immutable and shared:
/// Rank() is safe from any number of threads in every mode.
class EmbeddingRanker : public Ranker {
 public:
  EmbeddingRanker(EmbeddingStore queries, EmbeddingStore services);
  EmbeddingRanker(EmbeddingStore queries, EmbeddingStore services,
                  const RetrievalConfig& retrieval);

  RankedList Rank(uint32_t query, size_t k) const override;

  size_t num_queries() const { return queries_.size(); }
  size_t num_services() const { return services_.size(); }

  const RetrievalConfig& retrieval() const { return retrieval_; }
  /// Non-null iff retrieval().mode is kIvfSq8.
  const IvfIndex* index() const { return index_.get(); }

 private:
  EmbeddingStore queries_;
  EmbeddingStore services_;
  RetrievalConfig retrieval_;
  core::kernels::RowPanel panel_;          // empty in IVF mode
  std::shared_ptr<const IvfIndex> index_;  // null in brute-force mode
};

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_RANKING_SERVICE_H_
