// Parameterized property tests for the retrieval path, run as a CONTRACT
// SUITE against every retrieval backend: the brute-force serving scan
// (core::kernels::TopKDot over a RowPanel) and the IVF index probed at full
// nprobe (serving/ivf_index.h) must both agree with an independent
// brute-force reference for arbitrary sizes, K values (k = 0, k > n) and
// score distributions, and break exact ties by ascending id.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "core/rng.h"
#include "serving/ivf_index.h"
#include "serving/ranking_service.h"

namespace garcia::serving {
namespace {

/// The retrieval backends the contract suite runs against.
enum class Backend { kBruteForce, kIvfFullProbe };

const char* BackendName(Backend b) {
  return b == Backend::kBruteForce ? "BruteForce" : "IvfFullProbe";
}

/// Top-k through the chosen backend. The brute-force backend packs the
/// candidates into a RowPanel, as the rankers do; the IVF backend builds an
/// index over them (nlist from the catalog size) and probes EVERY list —
/// the configuration the oracle-equivalence contract covers.
RankedList BackendTopK(Backend b, const float* query, const core::Matrix& cands,
                       size_t k) {
  if (b == Backend::kBruteForce) {
    return core::kernels::TopKDot(query, core::kernels::RowPanel(cands), k);
  }
  RetrievalConfig cfg;
  cfg.seed = 101;
  const IvfIndex index = IvfIndex::Build(cands, cfg);
  return index.Query(query, k, index.nlist());
}

struct RetrievalCase {
  size_t services, dim, k;
  uint64_t seed;
};

class RetrievalPropertyTest
    : public ::testing::TestWithParam<std::tuple<RetrievalCase, Backend>> {
 protected:
  RetrievalCase c() const { return std::get<0>(GetParam()); }
  Backend backend() const { return std::get<1>(GetParam()); }
};

TEST_P(RetrievalPropertyTest, MatchesBruteForce) {
  const RetrievalCase c = this->c();
  core::Rng rng(c.seed);
  core::Matrix cands = core::Matrix::Randn(c.services, c.dim, &rng);
  core::Matrix q = core::Matrix::Randn(1, c.dim, &rng);
  RankedList top = BackendTopK(backend(), q.row(0), cands, c.k);

  // Brute force with identical tie-breaking.
  RankedList all(c.services);
  for (size_t i = 0; i < c.services; ++i) {
    double dot = 0.0;
    for (size_t j = 0; j < c.dim; ++j) {
      dot += static_cast<double>(q.at(0, j)) * cands.at(i, j);
    }
    all[i] = {static_cast<uint32_t>(i), static_cast<float>(dot)};
  }
  std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
    if (a.second != b.second) return a.second > b.second;
    return a.first < b.first;
  });
  const size_t expect_k = std::min(c.k, c.services);
  ASSERT_EQ(top.size(), expect_k);
  for (size_t i = 0; i < expect_k; ++i) {
    EXPECT_EQ(top[i].first, all[i].first) << "rank " << i;
    EXPECT_FLOAT_EQ(top[i].second, all[i].second);
  }
}

TEST_P(RetrievalPropertyTest, ScoresNonIncreasing) {
  const RetrievalCase c = this->c();
  core::Rng rng(c.seed + 1);
  core::Matrix cands = core::Matrix::Randn(c.services, c.dim, &rng);
  core::Matrix q = core::Matrix::Randn(1, c.dim, &rng);
  RankedList top = BackendTopK(backend(), q.row(0), cands, c.k);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

TEST_P(RetrievalPropertyTest, ResultsAreDistinctServices) {
  const RetrievalCase c = this->c();
  core::Rng rng(c.seed + 2);
  core::Matrix cands = core::Matrix::Randn(c.services, c.dim, &rng);
  core::Matrix q = core::Matrix::Randn(1, c.dim, &rng);
  RankedList top = BackendTopK(backend(), q.row(0), cands, c.k);
  std::set<uint32_t> seen;
  for (const auto& [svc, score] : top) {
    EXPECT_TRUE(seen.insert(svc).second);
    EXPECT_LT(svc, c.services);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Cases, RetrievalPropertyTest,
    ::testing::Combine(
        ::testing::Values(RetrievalCase{1, 4, 1, 1},
                          RetrievalCase{10, 8, 3, 2},
                          RetrievalCase{100, 16, 10, 3},
                          RetrievalCase{100, 16, 100, 4},
                          RetrievalCase{57, 3, 200, 5},  // k > n
                          RetrievalCase{100, 16, 0, 7},  // k = 0
                          RetrievalCase{1000, 32, 5, 6},
                          RetrievalCase{5000, 24, 1500, 8}),
        ::testing::Values(Backend::kBruteForce, Backend::kIvfFullProbe)),
    [](const auto& info) {
      const RetrievalCase& c = std::get<0>(info.param);
      return std::string(BackendName(std::get<1>(info.param))) + "s" +
             std::to_string(c.services) + "d" + std::to_string(c.dim) + "k" +
             std::to_string(c.k);
    });

/// Backend sweep for the tie-breaking case below.
class RetrievalTieTest : public ::testing::TestWithParam<Backend> {};

// Duplicate rows score identically; ties must break by ascending service
// id (total order => unique answer), as the full-sort oracle breaks them.
TEST_P(RetrievalTieTest, DuplicateRowTiesBreakByAscendingId) {
  core::Rng rng(18);
  const size_t dim = 8, copies = 400, distinct = 5;
  core::Matrix base = core::Matrix::Randn(distinct, dim, &rng);
  core::Matrix cands(copies * distinct, dim);
  for (size_t i = 0; i < copies * distinct; ++i) {
    cands.CopyRowFrom(base, i % distinct, i);
  }
  core::Matrix q = core::Matrix::Randn(1, dim, &rng);
  const size_t k = 3 * distinct;
  RankedList top = BackendTopK(GetParam(), q.row(0), cands, k);
  ASSERT_EQ(top, TopKInnerProduct(q.row(0), dim, cands, k));
  for (size_t i = 1; i < top.size(); ++i) {
    if (top[i - 1].second == top[i].second) {
      EXPECT_LT(top[i - 1].first, top[i].first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RetrievalTieTest,
                         ::testing::Values(Backend::kBruteForce,
                                           Backend::kIvfFullProbe),
                         [](const auto& info) {
                           return BackendName(info.param);
                         });

TEST(EmbeddingRankerPropertyTest, TopOneIsArgmax) {
  core::Rng rng(9);
  EmbeddingStore queries(core::Matrix::Randn(20, 8, &rng));
  EmbeddingStore services(core::Matrix::Randn(50, 8, &rng));
  EmbeddingRanker ranker(queries, services);
  for (uint32_t q = 0; q < 20; ++q) {
    auto top = ranker.Rank(q, 1);
    ASSERT_EQ(top.size(), 1u);
    // No service may score strictly higher than the reported best.
    for (uint32_t s = 0; s < 50; ++s) {
      double dot = 0.0;
      for (size_t j = 0; j < 8; ++j) {
        dot += static_cast<double>(queries.vector(q)[j]) *
               services.vector(s)[j];
      }
      EXPECT_LE(dot, top[0].second + 1e-4);
    }
  }
}

}  // namespace
}  // namespace garcia::serving
