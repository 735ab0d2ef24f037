#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>

#include "core/rng.h"
#include "serving/ab_test.h"
#include "serving/case_study.h"
#include "serving/embedding_store.h"
#include "serving/ranking_service.h"

namespace garcia::serving {
namespace {

using core::Matrix;

TEST(EmbeddingStoreTest, SaveLoadRoundTrip) {
  core::Rng rng(1);
  EmbeddingStore store(Matrix::Randn(10, 4, &rng));
  const std::string path = "/tmp/garcia_emb_test.bin";
  ASSERT_TRUE(store.Save(path).ok());
  auto loaded = EmbeddingStore::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_TRUE(loaded.value().matrix().AllClose(store.matrix()));
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, LoadMissingFileFails) {
  EXPECT_FALSE(EmbeddingStore::Load("/tmp/garcia_no_such_file.bin").ok());
}

TEST(EmbeddingStoreTest, LoadRejectsGarbage) {
  const std::string path = "/tmp/garcia_garbage.bin";
  FILE* f = fopen(path.c_str(), "wb");
  fputs("not an embedding store at all", f);
  fclose(f);
  auto r = EmbeddingStore::Load(path);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(EmbeddingStoreTest, VectorAccess) {
  Matrix m({{1, 2}, {3, 4}});
  EmbeddingStore store(m);
  EXPECT_FLOAT_EQ(store.vector(1)[0], 3.0f);
  EXPECT_EQ(store.size(), 2u);
  EXPECT_EQ(store.dim(), 2u);
}

TEST(TopKInnerProductTest, OrdersByScore) {
  Matrix cands({{1, 0}, {0, 1}, {2, 0}, {0.5, 0.5}});
  const float q[2] = {1.0f, 0.0f};
  RankedList top = TopKInnerProduct(q, 2, cands, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 2u);  // score 2
  EXPECT_EQ(top[1].first, 0u);  // score 1
  EXPECT_EQ(top[2].first, 3u);  // score 0.5
  EXPECT_FLOAT_EQ(top[0].second, 2.0f);
}

TEST(TopKInnerProductTest, KLargerThanCandidates) {
  Matrix cands({{1.0}, {2.0}});
  const float q[1] = {1.0f};
  EXPECT_EQ(TopKInnerProduct(q, 1, cands, 10).size(), 2u);
}

TEST(TopKInnerProductTest, DeterministicTieBreak) {
  Matrix cands({{1.0}, {1.0}, {1.0}});
  const float q[1] = {1.0f};
  RankedList top = TopKInnerProduct(q, 1, cands, 3);
  EXPECT_EQ(top[0].first, 0u);
  EXPECT_EQ(top[1].first, 1u);
  EXPECT_EQ(top[2].first, 2u);
}

// The oracle against a sort written here: a tied catalog (five base rows
// repeated, so most ranks are decided by id), the zero query (every score
// ties), and k = 0, 1, 10, n and n + 5.
TEST(TopKInnerProductTest, MatchesLocalSortOnTiesZeroQueryAndKZero) {
  core::Rng rng(3);
  const size_t n = 260, dim = 32;
  const Matrix base = Matrix::Randn(5, dim, &rng);
  Matrix cands(n, dim);
  for (size_t i = 0; i < n; ++i) cands.CopyRowFrom(base, i % 5, i);
  Matrix queries = Matrix::Randn(2, dim, &rng);
  std::fill(queries.row(1), queries.row(1) + dim, 0.0f);
  for (size_t qi = 0; qi < 2; ++qi) {
    const float* q = queries.row(qi);
    RankedList want(n);
    for (size_t i = 0; i < n; ++i) {
      double dot = 0.0;
      for (size_t j = 0; j < dim; ++j) {
        dot += static_cast<double>(q[j]) * static_cast<double>(cands.at(i, j));
      }
      want[i] = {static_cast<uint32_t>(i), static_cast<float>(dot)};
    }
    std::sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      return a.second != b.second ? a.second > b.second : a.first < b.first;
    });
    for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 5}) {
      RankedList prefix(want.begin(), want.begin() + std::min(k, n));
      EXPECT_EQ(TopKInnerProduct(q, dim, cands, k), prefix)
          << "query " << qi << " k " << k;
    }
  }
}

TEST(EmbeddingRankerTest, RanksByInnerProduct) {
  EmbeddingStore queries(Matrix({{1, 0}, {0, 1}}));
  EmbeddingStore services(Matrix({{0.9, 0.1}, {0.1, 0.9}, {0.5, 0.5}}));
  EmbeddingRanker ranker(queries, services);
  RankedList r0 = ranker.Rank(0, 2);
  EXPECT_EQ(r0[0].first, 0u);
  RankedList r1 = ranker.Rank(1, 2);
  EXPECT_EQ(r1[0].first, 1u);
}

// ---- scenario-backed fixtures ----

data::ScenarioConfig SmallConfig() {
  data::ScenarioConfig cfg;
  cfg.num_queries = 200;
  cfg.num_services = 80;
  cfg.num_intentions = 40;
  cfg.num_trees = 4;
  cfg.num_impressions = 8000;
  cfg.head_fraction = 0.05;
  return cfg;
}

const data::Scenario& Scn() {
  static const data::Scenario* s =
      new data::Scenario(data::GenerateScenario(SmallConfig()));
  return *s;
}

/// A ranker with oracle access to the latent click model — an upper bound.
class OracleRanker : public Ranker {
 public:
  explicit OracleRanker(const data::Scenario& s) : s_(s) {}
  RankedList Rank(uint32_t query, size_t k) const override {
    RankedList all(s_.num_services());
    for (uint32_t i = 0; i < s_.num_services(); ++i) {
      all[i] = {i, static_cast<float>(s_.TrueClickProbability(query, i))};
    }
    std::partial_sort(all.begin(), all.begin() + std::min(k, all.size()),
                      all.end(), [](const auto& a, const auto& b) {
                        return a.second > b.second;
                      });
    all.resize(std::min(k, all.size()));
    return all;
  }

 private:
  const data::Scenario& s_;
};

/// Uniform-random ranker — a floor.
class RandomRanker : public Ranker {
 public:
  explicit RandomRanker(size_t n, uint64_t seed) : n_(n), seed_(seed) {}
  RankedList Rank(uint32_t query, size_t k) const override {
    core::Rng rng(seed_ ^ (query * 0x9e3779b97f4a7c15ULL));
    RankedList out;
    auto picks = rng.SampleWithoutReplacement(n_, std::min(k, n_));
    for (size_t i = 0; i < picks.size(); ++i) {
      out.push_back({static_cast<uint32_t>(picks[i]),
                     1.0f / static_cast<float>(i + 1)});
    }
    return out;
  }

 private:
  size_t n_;
  uint64_t seed_;
};

TEST(AbTestTest, OracleBeatsRandom) {
  OracleRanker oracle(Scn());
  RandomRanker random(Scn().num_services(), 11);
  AbTestConfig cfg;
  cfg.num_days = 3;
  cfg.requests_per_day = 1500;
  AbTestResult r = RunAbTest(Scn(), random, oracle, cfg);
  ASSERT_EQ(r.baseline.size(), 3u);
  EXPECT_GT(r.MeanCtrImprovement(), 0.05);
  EXPECT_GT(r.MeanValidCtrImprovement(), 0.0);
  for (size_t d = 0; d < 3; ++d) {
    EXPECT_GT(r.CtrImprovement(d), 0.0) << "day " << d;
  }
}

TEST(AbTestTest, IdenticalArmsTie) {
  // Paired buckets: the same ranker in both arms gives exactly equal
  // metrics because the user randomness stream is shared.
  OracleRanker oracle(Scn());
  AbTestConfig cfg;
  cfg.num_days = 2;
  cfg.requests_per_day = 500;
  AbTestResult r = RunAbTest(Scn(), oracle, oracle, cfg);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_DOUBLE_EQ(r.baseline[d].ctr, r.treatment[d].ctr);
    EXPECT_DOUBLE_EQ(r.baseline[d].valid_ctr, r.treatment[d].valid_ctr);
  }
}

TEST(AbTestTest, CtrBoundedAndDeterministic) {
  OracleRanker oracle(Scn());
  RandomRanker random(Scn().num_services(), 13);
  AbTestConfig cfg;
  cfg.num_days = 2;
  cfg.requests_per_day = 400;
  AbTestResult r1 = RunAbTest(Scn(), random, oracle, cfg);
  AbTestResult r2 = RunAbTest(Scn(), random, oracle, cfg);
  for (size_t d = 0; d < 2; ++d) {
    EXPECT_GE(r1.baseline[d].ctr, 0.0);
    EXPECT_LE(r1.baseline[d].ctr, 1.0);
    EXPECT_LE(r1.baseline[d].valid_ctr, r1.baseline[d].ctr);
    EXPECT_DOUBLE_EQ(r1.treatment[d].ctr, r2.treatment[d].ctr);
  }
}

TEST(CaseStudyTest, AnnotatesBothLists) {
  OracleRanker oracle(Scn());
  RandomRanker random(Scn().num_services(), 17);
  auto queries = PickTailCaseQueries(Scn(), 2);
  ASSERT_EQ(queries.size(), 2u);
  CaseStudy cs = BuildCaseStudy(Scn(), random, oracle, queries[0], 5);
  ASSERT_EQ(cs.baseline.size(), 5u);
  ASSERT_EQ(cs.treatment.size(), 5u);
  EXPECT_FALSE(cs.query_text.empty());
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(cs.baseline[i].rank, i + 1);
    EXPECT_FALSE(cs.treatment[i].name.empty());
    EXPECT_GE(cs.treatment[i].rating, 1);
    EXPECT_LE(cs.treatment[i].rating, 5);
  }
}

TEST(CaseStudyTest, OracleListHasHigherQuality) {
  // The oracle ranks by true click probability which includes quality, so
  // its mean MAU should top the random list's for tail queries (averaged
  // over a few cases to dampen noise).
  OracleRanker oracle(Scn());
  RandomRanker random(Scn().num_services(), 19);
  auto queries = PickTailCaseQueries(Scn(), 10);
  double mau_oracle = 0.0, mau_random = 0.0;
  for (uint32_t q : queries) {
    CaseStudy cs = BuildCaseStudy(Scn(), random, oracle, q, 5);
    mau_oracle += CaseStudy::MeanMau(cs.treatment);
    mau_random += CaseStudy::MeanMau(cs.baseline);
  }
  EXPECT_GT(mau_oracle, mau_random);
}

TEST(CaseStudyTest, PickTailCaseQueriesAreTails) {
  auto queries = PickTailCaseQueries(Scn(), 5);
  for (uint32_t q : queries) {
    EXPECT_FALSE(Scn().split.is_head[q]);
  }
  // Sorted by exposure, descending.
  for (size_t i = 1; i < queries.size(); ++i) {
    EXPECT_GE(Scn().query_exposure[queries[i - 1]],
              Scn().query_exposure[queries[i]]);
  }
}

}  // namespace
}  // namespace garcia::serving
