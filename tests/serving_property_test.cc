// Parameterized property tests for the retrieval path, run as a CONTRACT
// SUITE against every retrieval backend: the brute-force scan
// (TopKInnerProduct) and the IVF index probed at full nprobe
// (serving/ivf_index.h) must both agree with an independent brute-force
// reference for arbitrary sizes, K values (k = 0, k > n) and score
// distributions, break exact ties by ascending id, and be bit-identical
// across execution contexts.

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

/// Top-k through the chosen backend, scanning under `ctx`. The IVF backend
/// builds an index over the candidates (serially; nlist from the catalog
/// size) and probes EVERY list — the configuration the oracle-equivalence
/// contract covers.
RankedList BackendTopK(Backend b, const core::ExecutionContext& ctx,
                       const float* query, size_t dim,
                       const core::Matrix& cands, size_t k) {
  if (b == Backend::kBruteForce) {
    return core::kernels::TopKDot(ctx, query, dim, cands, k);
  }
  RetrievalConfig cfg;
  cfg.seed = 101;
  const IvfIndex index = IvfIndex::Build(cands, cfg);
  return index.Query(ctx, query, k, index.nlist());
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
  RankedList top = BackendTopK(backend(), core::SerialExecution(), q.row(0),
                               c.dim, cands, c.k);

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
  RankedList top = BackendTopK(backend(), core::SerialExecution(), q.row(0),
                               c.dim, cands, c.k);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
}

TEST_P(RetrievalPropertyTest, ResultsAreDistinctServices) {
  const RetrievalCase c = this->c();
  core::Rng rng(c.seed + 2);
  core::Matrix cands = core::Matrix::Randn(c.services, c.dim, &rng);
  core::Matrix q = core::Matrix::Randn(1, c.dim, &rng);
  RankedList top = BackendTopK(backend(), core::SerialExecution(), q.row(0),
                               c.dim, cands, c.k);
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
                          RetrievalCase{1000, 32, 5, 6}),
        ::testing::Values(Backend::kBruteForce, Backend::kIvfFullProbe)),
    [](const auto& info) {
      const RetrievalCase& c = std::get<0>(info.param);
      return std::string(BackendName(std::get<1>(info.param))) + "s" +
             std::to_string(c.services) + "d" + std::to_string(c.dim) + "k" +
             std::to_string(c.k);
    });

/// Execution-context sweep, shared by both backends below.
class RetrievalParallelTest : public ::testing::TestWithParam<Backend> {};

// The partial-heap path sharded over an ExecutionContext must agree bit for
// bit with the serial scan for any thread count (core/kernels.h contract).
// 5000 rows exceed the kernel's block size, so the parallel path genuinely
// merges multiple partial heaps; the IVF backend shards its centroid
// ranking, SQ8 scan and exact re-rank over the same contexts.
TEST_P(RetrievalParallelTest, ShardedContextBitIdenticalToSerial) {
  core::Rng rng(17);
  const size_t n = 5000, dim = 24;
  core::Matrix cands = core::Matrix::Randn(n, dim, &rng);
  core::Matrix q = core::Matrix::Randn(1, dim, &rng);
  core::ExecutionContext par3(3), par4(4);
  for (size_t k : {size_t{0}, size_t{1}, size_t{10}, size_t{1500}, n, n + 9}) {
    RankedList serial = BackendTopK(GetParam(), core::SerialExecution(),
                                    q.row(0), dim, cands, k);
    EXPECT_EQ(serial.size(), std::min(k, n));
    for (const core::ExecutionContext* ctx : {&par3, &par4}) {
      RankedList par = BackendTopK(GetParam(), *ctx, q.row(0), dim, cands, k);
      ASSERT_EQ(par.size(), serial.size()) << "k=" << k;
      for (size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(par[i].first, serial[i].first) << "k=" << k << " rank " << i;
        EXPECT_EQ(par[i].second, serial[i].second);  // exact, not near
      }
    }
  }
}

// Duplicate rows score identically; ties must break by ascending service id
// in both the serial and the sharded path (total order => unique answer).
TEST_P(RetrievalParallelTest, DuplicateRowTiesBreakByAscendingId) {
  core::Rng rng(18);
  const size_t dim = 8, copies = 400, distinct = 5;
  core::Matrix base = core::Matrix::Randn(distinct, dim, &rng);
  core::Matrix cands(copies * distinct, dim);
  for (size_t i = 0; i < copies * distinct; ++i) {
    cands.CopyRowFrom(base, i % distinct, i);
  }
  core::Matrix q = core::Matrix::Randn(1, dim, &rng);
  core::ExecutionContext par4(4);
  const size_t k = 3 * distinct;
  RankedList serial =
      BackendTopK(GetParam(), core::SerialExecution(), q.row(0), dim, cands, k);
  RankedList par = BackendTopK(GetParam(), par4, q.row(0), dim, cands, k);
  ASSERT_EQ(serial, par);
  for (size_t i = 1; i < serial.size(); ++i) {
    if (serial[i - 1].second == serial[i].second) {
      EXPECT_LT(serial[i - 1].first, serial[i].first);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, RetrievalParallelTest,
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
