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

RankedList TopKInnerProduct(const float* query_vec, size_t dim,
                            const core::Matrix& candidates, size_t k) {
  GARCIA_CHECK_EQ(candidates.cols(), dim);
  RankedList all(candidates.rows());
  for (size_t i = 0; i < all.size(); ++i) {
    all[i] = {static_cast<uint32_t>(i),
              core::kernels::DotRowDouble(query_vec, candidates.row(i), dim)};
  }
  const size_t kept = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + kept, all.end(),
                    core::kernels::RanksBefore);
  all.resize(kept);
  return all;
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
  if (retrieval_.mode == RetrievalMode::kBruteForce) {
    panel_ = core::kernels::RowPanel(services_.matrix());
  } else {
    // Build from the member store: the re-rank catalog pointer refers to
    // services_.matrix(), which lives exactly as long as this ranker.
    index_ = std::make_shared<const IvfIndex>(
        IvfIndex::Build(services_.matrix(), retrieval_));
  }
}

RankedList EmbeddingRanker::Rank(uint32_t query, size_t k) const {
  if (index_ != nullptr) return index_->Query(queries_.vector(query), k);
  return core::kernels::TopKDot(queries_.vector(query), panel_, k);
}

}  // namespace garcia::serving
