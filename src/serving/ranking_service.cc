#include "serving/ranking_service.h"

#include <algorithm>

#include "serving/ivf_index.h"

namespace garcia::serving {

const char* RetrievalModeName(RetrievalMode mode) {
  switch (mode) {
    case RetrievalMode::kBruteForce:
      return "brute-force";
    case RetrievalMode::kIvfSq8:
      return "ivf-sq8";
  }
  return "unknown";
}

RankedList TopKInnerProduct(const core::ExecutionContext& ctx,
                            const float* query_vec, size_t dim,
                            const core::Matrix& candidates, size_t k) {
  return core::kernels::TopKDot(ctx, query_vec, dim, candidates, k);
}

RankedList TopKInnerProduct(const float* query_vec, size_t dim,
                            const core::Matrix& candidates, size_t k) {
  return TopKInnerProduct(core::CurrentExecution(), query_vec, dim, candidates,
                          k);
}

EmbeddingRanker::EmbeddingRanker(EmbeddingStore queries,
                                 EmbeddingStore services)
    : EmbeddingRanker(std::move(queries), std::move(services),
                      RetrievalConfig{}) {}

EmbeddingRanker::EmbeddingRanker(EmbeddingStore queries,
                                 EmbeddingStore services,
                                 const RetrievalConfig& retrieval)
    : queries_(std::move(queries)),
      services_(std::move(services)),
      retrieval_(retrieval) {
  GARCIA_CHECK(!queries_.empty());
  GARCIA_CHECK(!services_.empty());
  GARCIA_CHECK_EQ(queries_.dim(), services_.dim());
  if (retrieval_.mode != RetrievalMode::kBruteForce) {
    // Build from the member store: the re-rank catalog pointer refers to
    // services_.matrix(), which lives exactly as long as this ranker.
    index_ = std::make_shared<const IvfIndex>(
        IvfIndex::Build(services_.matrix(), retrieval_));
  }
}

RankedList EmbeddingRanker::Rank(uint32_t query, size_t k) const {
  if (index_ != nullptr) {
    return index_->Query(core::CurrentExecution(), queries_.vector(query), k,
                         index_->default_nprobe(),
                         index_->default_rerank_k());
  }
  return TopKInnerProduct(queries_.vector(query), queries_.dim(),
                          services_.matrix(), k);
}

}  // namespace garcia::serving
