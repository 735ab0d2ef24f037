// Property-test harness for the SQ8 IVF retrieval index: the index must
// be EXACTLY the brute-force oracle at full probe — byte-identical ranked
// lists for seed-swept adversarial catalogs (duplicate rows, zero vectors,
// near-tie scores), every K shape, and every thread count — and, at every
// nprobe, exactly an exact float scan of the probed lists; with recall
// monotone in nprobe, a thread-count-invariant build (identical Save()
// bytes), hardened Save/Load, and bit-identical concurrent serving through
// the shared-index BatchRanker path.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/crc32.h"
#include "core/kernels.h"
#include "core/rng.h"
#include "core/sectioned_file.h"
#include "core/threadpool.h"
#include "serving/batch_ranker.h"
#include "serving/embedding_store.h"
#include "serving/ivf_index.h"
#include "serving/ranking_service.h"

namespace garcia::serving {
namespace {

using core::Matrix;

std::string TempPath(const char* name) {
  return std::string("/tmp/garcia_retrieval_") + name + ".ivf";
}

std::string ReadAllBytes(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(f),
                     std::istreambuf_iterator<char>());
}

/// Adversarial catalog for seed `seed`: a random Gaussian base, then
/// duplicate rows (exact score ties — must break by ascending id), zero
/// vectors (score exactly 0 against every query), and near-tie rows (a
/// 1-ulp-ish perturbation of an existing row, so float comparison order is
/// load-bearing). Sizes vary with the seed.
Matrix AdversarialCatalog(uint64_t seed) {
  core::Rng rng(seed * 1000003 + 5);
  const size_t dim = 4 + rng.UniformInt(13);          // 4 .. 16
  const size_t n = 40 + rng.UniformInt(260);          // 40 .. 299
  Matrix m = Matrix::Randn(n, dim, &rng);
  const size_t dups = 4 + rng.UniformInt(8);
  for (size_t d = 0; d < dups; ++d) {
    m.CopyRowFrom(m, rng.UniformInt(n), rng.UniformInt(n));
  }
  const size_t zeros = 2 + rng.UniformInt(4);
  for (size_t z = 0; z < zeros; ++z) {
    float* row = m.row(rng.UniformInt(n));
    std::fill(row, row + dim, 0.0f);
  }
  const size_t near = 3 + rng.UniformInt(5);
  for (size_t t = 0; t < near; ++t) {
    const size_t src = rng.UniformInt(n), dst = rng.UniformInt(n);
    m.CopyRowFrom(m, src, dst);
    m.at(dst, 0) += 1e-7f * (rng.Uniform() < 0.5 ? 1.0f : -1.0f);
  }
  return m;
}

/// Well-separated clustered catalog: `clusters` Gaussian centers scaled up,
/// tight noise around each. The geometry IVF is built for — used by the
/// recall floor and the recall/QPS bench.
Matrix ClusteredCatalog(uint64_t seed, size_t clusters, size_t per_cluster,
                        size_t dim) {
  core::Rng rng(seed);
  Matrix centers = Matrix::Randn(clusters, dim, &rng, 0.0f, 4.0f);
  Matrix m(clusters * per_cluster, dim);
  for (size_t c = 0; c < clusters; ++c) {
    for (size_t p = 0; p < per_cluster; ++p) {
      float* row = m.row(c * per_cluster + p);
      for (size_t j = 0; j < dim; ++j) {
        row[j] = centers.at(c, j) + static_cast<float>(rng.Normal()) * 0.25f;
      }
    }
  }
  return m;
}

double RecallAgainst(const RankedList& truth, const RankedList& got) {
  if (truth.empty()) return 1.0;
  std::set<uint32_t> truth_ids;
  for (const auto& [id, s] : truth) truth_ids.insert(id);
  size_t hit = 0;
  for (const auto& [id, s] : got) hit += truth_ids.count(id);
  return static_cast<double>(hit) / static_cast<double>(truth.size());
}

// ------------------------------------------------------ oracle equivalence

TEST(IvfOracleTest, KZeroReturnsEmptyInEveryMode) {
  const Matrix catalog = AdversarialCatalog(3);
  const IvfIndex index = IvfIndex::Build(catalog, RetrievalConfig{});
  std::vector<float> q(catalog.cols(), 1.0f);
  EXPECT_TRUE(index.Query(q.data(), 0, 1).empty());
  EXPECT_TRUE(index.Query(q.data(), 0, index.nlist()).empty());
  EXPECT_TRUE(index.Query(q.data(), 0).empty());
}

// Query must return min(k, size()) results even when the nprobe-best lists
// are underpopulated: nlist == n makes every list a singleton (or empty),
// so nprobe=1 holds one candidate and the probe prefix must extend.
TEST(IvfOracleTest, ReturnsMinKSizeEvenWithUnderpopulatedProbes) {
  core::Rng rng(7);
  const size_t n = 64, dim = 8;
  const Matrix catalog = Matrix::Randn(n, dim, &rng);
  RetrievalConfig cfg;
  cfg.nlist = n;
  const IvfIndex index = IvfIndex::Build(catalog, cfg);
  Matrix q = Matrix::Randn(1, dim, &rng);
  for (size_t nprobe : {size_t{1}, size_t{2}, size_t{7}}) {
    for (size_t k : {size_t{1}, size_t{5}, size_t{20}, n, n + 3}) {
      const RankedList got = index.Query(q.row(0), k, nprobe);
      EXPECT_EQ(got.size(), std::min(k, n)) << "nprobe " << nprobe;
    }
  }
  // And the extended prefix still ranks exactly: k >= n probes everything.
  const RankedList all = index.Query(q.row(0), n, 1);
  const RankedList truth = TopKInnerProduct(q.row(0), dim, catalog, n);
  EXPECT_EQ(all, truth);
}

// --------------------------------------------------------- recall behavior

// Per-query recall@10 must be non-decreasing in nprobe (probe prefixes are
// nested), and exactly 1 at nprobe == nlist.
TEST(IvfRecallTest, RecallMonotoneInNprobePerQuery) {
  for (uint64_t seed : {11u, 12u, 13u, 14u}) {
    const Matrix catalog = ClusteredCatalog(seed, 16, 40, 12);
    RetrievalConfig cfg;
    cfg.nlist = 16;
    cfg.seed = seed;
    const IvfIndex index = IvfIndex::Build(catalog, cfg);
    core::Rng qrng(seed + 1);
    Matrix queries = Matrix::Randn(8, 12, &qrng, 0.0f, 4.0f);
    for (size_t qi = 0; qi < queries.rows(); ++qi) {
      const RankedList truth =
          TopKInnerProduct(queries.row(qi), 12, catalog, 10);
      double prev = -1.0;
      for (size_t nprobe = 1; nprobe <= index.nlist(); ++nprobe) {
        const RankedList got = index.Query(queries.row(qi), 10, nprobe);
        const double recall = RecallAgainst(truth, got);
        ASSERT_GE(recall, prev)
            << "seed " << seed << " query " << qi << " nprobe " << nprobe;
        prev = recall;
      }
      EXPECT_EQ(prev, 1.0) << "full probe must be exact";
    }
  }
}

// Acceptance criterion: recall@10 >= 0.95 at the default nprobe on
// clustered synthetic catalogs.
TEST(IvfRecallTest, DefaultNprobeRecallFloorOnClusteredData) {
  const Matrix catalog = ClusteredCatalog(42, 20, 100, 16);
  RetrievalConfig cfg;
  cfg.nlist = 20;  // default nprobe resolves to 5
  const IvfIndex index = IvfIndex::Build(catalog, cfg);
  EXPECT_EQ(index.default_nprobe(), 5u);
  // Queries live near catalog points (a trained query tower embeds queries
  // into the service space), not in isotropic noise.
  core::Rng qrng(43);
  const size_t kQueries = 64;
  Matrix queries(kQueries, 16);
  for (size_t qi = 0; qi < kQueries; ++qi) {
    const float* anchor = catalog.row(qrng.UniformInt(catalog.rows()));
    for (size_t j = 0; j < 16; ++j) {
      queries.at(qi, j) = anchor[j] + static_cast<float>(qrng.Normal()) * 0.3f;
    }
  }
  double total = 0.0;
  for (size_t qi = 0; qi < kQueries; ++qi) {
    const RankedList truth =
        TopKInnerProduct(queries.row(qi), 16, catalog, 10);
    const RankedList got = index.Query(queries.row(qi), 10);  // default nprobe
    total += RecallAgainst(truth, got);
  }
  EXPECT_GE(total / kQueries, 0.95);
}

// ------------------------------------------------------ build determinism

TEST(IvfBuildTest, StructureIsWellFormed) {
  const Matrix catalog = AdversarialCatalog(33);
  const size_t n = catalog.rows();
  RetrievalConfig cfg;
  cfg.nlist = 7;
  const IvfIndex index = IvfIndex::Build(catalog, cfg);
  ASSERT_EQ(index.nlist(), 7u);
  ASSERT_EQ(index.list_offsets().size(), 8u);
  EXPECT_EQ(index.list_offsets().front(), 0u);
  EXPECT_EQ(index.list_offsets().back(), n);
  std::vector<bool> seen(n, false);
  for (size_t l = 0; l < index.nlist(); ++l) {
    EXPECT_LE(index.list_offsets()[l], index.list_offsets()[l + 1]);
    for (uint32_t i = index.list_offsets()[l]; i < index.list_offsets()[l + 1];
         ++i) {
      const uint32_t id = index.ids()[i];
      ASSERT_LT(id, n);
      EXPECT_FALSE(seen[id]) << "id stored twice";
      seen[id] = true;
      if (i > index.list_offsets()[l]) {
        EXPECT_LT(index.ids()[i - 1], id) << "ids ascending within a list";
      }
    }
  }
}

TEST(IvfBuildTest, EveryIdSitsInItsScalarNearestFinalCentroid) {
  // The final assignment against a plain double loop with strict <, so a
  // tie keeps the lower centroid id. nlist = 21 spans two 16-lane groups
  // with a padded tail. Half the rows are one repeated vector, so the
  // seeded init draws it more than once: the duplicate centroids stay
  // equal through every sweep (the later copy's list empties), and every
  // copy of that row ties between them.
  const size_t n = 400, dim = 33;
  Matrix catalog = ClusteredCatalog(5, 10, n / 10, dim);
  for (size_t i = 0; i < n; i += 2) catalog.CopyRowFrom(catalog, 0, i);
  RetrievalConfig cfg;
  cfg.nlist = 21;
  const IvfIndex index = IvfIndex::Build(catalog, cfg);
  ASSERT_EQ(index.nlist(), 21u);
  const Matrix& cents = index.centroids();
  auto squared_l2 = [&](const float* a, const float* b) {
    double d = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = static_cast<double>(a[j]) - b[j];
      d += diff * diff;
    }
    return d;
  };
  bool duplicate_centroids = false;
  for (size_t a = 0; a < cents.rows(); ++a) {
    for (size_t b = a + 1; b < cents.rows(); ++b) {
      duplicate_centroids |=
          std::memcmp(cents.row(a), cents.row(b), dim * sizeof(float)) == 0;
    }
  }
  EXPECT_TRUE(duplicate_centroids) << "the tie rule is not exercised";
  for (size_t l = 0; l < index.nlist(); ++l) {
    for (uint32_t s = index.list_offsets()[l];
         s < index.list_offsets()[l + 1]; ++s) {
      const float* row = catalog.row(index.ids()[s]);
      size_t nearest = 0;
      double best = squared_l2(row, cents.row(0));
      for (size_t c = 1; c < cents.rows(); ++c) {
        const double d = squared_l2(row, cents.row(c));
        if (d < best) {
          best = d;
          nearest = c;
        }
      }
      ASSERT_EQ(nearest, l) << "id " << index.ids()[s];
    }
  }
}

TEST(IvfBuildDeathTest, NonFiniteCatalogValueNamesTheRow) {
  // A NaN would poison its centroid (which Load rejects) and reach
  // sq8::EncodeRow's lround; Build refuses it up front.
  core::Rng rng(64);
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity()}) {
    Matrix catalog = Matrix::Randn(64, 8, &rng);
    catalog.at(37, 5) = bad;
    EXPECT_DEATH(IvfIndex::Build(catalog, RetrievalConfig{}),
                 "non-finite value in IVF build catalog \\(row 37\\)");
  }
}

TEST(IvfBuildTest, ResolveKnobDefaults) {
  EXPECT_EQ(IvfIndex::ResolveNlist(0, 100), 10u);   // round(sqrt(100))
  EXPECT_EQ(IvfIndex::ResolveNlist(0, 1), 1u);
  EXPECT_EQ(IvfIndex::ResolveNlist(50, 10), 10u);   // clamp to rows
  EXPECT_EQ(IvfIndex::ResolveNlist(3, 100), 3u);
  EXPECT_EQ(IvfIndex::ResolveNprobe(0, 20), 5u);    // nlist / 4
  EXPECT_EQ(IvfIndex::ResolveNprobe(0, 2), 1u);     // max(1, ...)
  EXPECT_EQ(IvfIndex::ResolveNprobe(99, 20), 20u);  // clamp to nlist
}

// --------------------------------------------------------- persistence

TEST(IvfPersistenceTest, TruncationAndTrailingGarbageRejected) {
  const Matrix catalog = AdversarialCatalog(67);
  const IvfIndex index = IvfIndex::Build(catalog, RetrievalConfig{});
  const std::string path = TempPath("trunc");
  ASSERT_TRUE(index.Save(path).ok());
  const std::string clean = ReadAllBytes(path);
  for (size_t cut : {clean.size() - 1, clean.size() / 2, size_t{7}}) {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(clean.data(), static_cast<std::streamsize>(cut));
    f.close();
    EXPECT_FALSE(IvfIndex::Load(path).ok()) << "cut at " << cut;
  }
  {
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write(clean.data(), static_cast<std::streamsize>(clean.size()));
    f.write("junk", 4);
  }
  auto r = IvfIndex::Load(path);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("trailing"), std::string::npos);
  std::remove(path.c_str());
}

// ------------------------------------------------- concurrent serving

// One index probed concurrently through raw threads — no facade, maximum
// overlap — must agree with serial.
TEST(IvfConcurrencyTest, RawConcurrentProbesMatchSerial) {
  const Matrix catalog = ClusteredCatalog(79, 12, 40, 12);
  RetrievalConfig cfg;
  cfg.nlist = 12;
  const IvfIndex index = IvfIndex::Build(catalog, cfg);
  core::Rng qrng(80);
  const size_t kQ = 96;
  Matrix queries = Matrix::Randn(kQ, 12, &qrng);
  std::vector<RankedList> ref(kQ);
  for (size_t i = 0; i < kQ; ++i) {
    ref[i] = index.Query(queries.row(i), 10, 3);
  }
  std::vector<RankedList> got(kQ);
  std::atomic<size_t> cursor{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 8; ++t) {
    workers.emplace_back([&] {
      for (;;) {
        const size_t i = cursor.fetch_add(1);
        if (i >= kQ) return;
        got[i] = index.Query(queries.row(i), 10, 3);
      }
    });
  }
  for (auto& w : workers) w.join();
  for (size_t i = 0; i < kQ; ++i) {
    ASSERT_EQ(got[i], ref[i]) << "query " << i;
  }
}

// ------------------------------------------------------------- SQ8 lane
//
// The quantized lists must not trade ANY correctness for their 4x storage
// saving: the band-guaranteed re-rank makes the index identical to an
// exact float scan of the probed lists at every (nprobe, rerank_k >= k),
// hence byte-identical to brute force at full probe — over the same
// adversarial catalogs whose duplicate rows, zero vectors, and 1e-7
// near-ties quantize onto IDENTICAL codes, the worst case for any
// approximate-then-rerank scheme.

RetrievalConfig Sq8Config(size_t nlist, uint64_t seed, size_t nprobe = 0,
                          size_t rerank_k = 0) {
  RetrievalConfig cfg;
  cfg.mode = RetrievalMode::kIvfSq8;
  cfg.nlist = nlist;
  cfg.nprobe = nprobe;
  cfg.rerank_k = rerank_k;
  cfg.seed = seed;
  return cfg;
}

// The acceptance criterion: full probe + rerank_k >= k is byte-identical
// to the brute-force oracle for 24 adversarial seeds, every K shape and
// both rerank_k shapes.
TEST(Sq8OracleTest, FullProbeBitIdenticalToBruteForceAcrossSeeds) {
  for (uint64_t seed = 0; seed < 24; ++seed) {
    const Matrix catalog = AdversarialCatalog(seed);
    const size_t n = catalog.rows(), dim = catalog.cols();
    const IvfIndex index =
        IvfIndex::Build(catalog, Sq8Config(1 + seed % 17, seed));
    ASSERT_TRUE(index.has_rerank_catalog());

    core::Rng qrng(seed + 99);
    std::vector<std::vector<float>> queries;
    Matrix q = Matrix::Randn(2, dim, &qrng);
    queries.emplace_back(q.row(0), q.row(0) + dim);
    queries.emplace_back(q.row(1), q.row(1) + dim);
    queries.emplace_back(catalog.row(seed % n),
                         catalog.row(seed % n) + dim);
    queries.emplace_back(dim, 0.0f);  // zero query: qscale 0, all ties

    for (const auto& query : queries) {
      for (size_t k : {size_t{1}, size_t{10}, n / 2, n, n + 7}) {
        const RankedList truth =
            TopKInnerProduct(query.data(), dim, catalog, k);
        for (size_t rerank_k : {k, size_t{0}}) {  // exactly-k and auto
          const RankedList got =
              index.Query(query.data(), k, index.nlist(), rerank_k);
          ASSERT_EQ(got.size(), truth.size()) << "seed " << seed << " k " << k;
          for (size_t i = 0; i < truth.size(); ++i) {
            ASSERT_EQ(got[i].first, truth[i].first)
                << "seed " << seed << " k " << k << " rerank " << rerank_k
                << " rank " << i;
            ASSERT_EQ(got[i].second, truth[i].second)  // float ==, not near
                << "seed " << seed << " k " << k << " rerank " << rerank_k
                << " rank " << i;
          }
        }
      }
    }
  }
}

/// Exact float probe of `index`'s own lists — the answer the SQ8 path must
/// reproduce. Ranks centroids(), extends the probe prefix exactly as
/// IvfIndex::Query documents (lists are taken while fewer than nprobe are
/// used or fewer than min(k, size()) candidates are held), scores every
/// probed id with the exact TopKDot expression against `catalog`, and
/// selects the top k under the shared total order.
RankedList FloatProbe(const IvfIndex& index, const Matrix& catalog,
                      const float* query, size_t k, size_t nprobe) {
  nprobe = std::min(std::max<size_t>(nprobe, 1), index.nlist());
  const RankedList lists =
      TopKInnerProduct(query, index.dim(), index.centroids(), index.nlist());
  const size_t want = std::min(k, index.size());
  RankedList cands;
  for (size_t used = 0;
       used < lists.size() && (used < nprobe || cands.size() < want);
       ++used) {
    const uint32_t list = lists[used].first;
    for (uint32_t r = index.list_offsets()[list];
         r < index.list_offsets()[list + 1]; ++r) {
      const uint32_t id = index.ids()[r];
      cands.emplace_back(id, core::kernels::DotRowDouble(
                                 query, catalog.row(id), index.dim()));
    }
  }
  std::sort(cands.begin(), cands.end(), core::kernels::RanksBefore);
  cands.resize(std::min(k, cands.size()));
  return cands;
}

// Stronger than the full-probe gate: the band extension returns the exact
// top-k of the PROBED candidate set, so SQ8 equals an exact float scan of
// the same lists bit for bit at EVERY nprobe and rerank_k — quantization
// moves bytes, never results.
TEST(Sq8OracleTest, MatchesFloatIndexAtEveryNprobeAndRerankK) {
  for (uint64_t seed : {3u, 7u, 15u}) {
    const Matrix catalog = AdversarialCatalog(seed);
    const size_t dim = catalog.cols(), nlist = 5 + seed % 7;
    const IvfIndex sq = IvfIndex::Build(catalog, Sq8Config(nlist, seed));
    core::Rng qrng(seed + 5);
    Matrix q = Matrix::Randn(3, dim, &qrng);
    for (size_t qi = 0; qi < 3; ++qi) {
      for (size_t nprobe = 1; nprobe <= sq.nlist(); ++nprobe) {
        const RankedList truth = FloatProbe(sq, catalog, q.row(qi), 10, nprobe);
        ASSERT_EQ(truth.size(), 10u);
        for (size_t rerank_k : {size_t{0}, size_t{10}, size_t{31}}) {
          ASSERT_EQ(sq.Query(q.row(qi), 10, nprobe, rerank_k), truth)
              << "seed " << seed << " nprobe " << nprobe << " rerank "
              << rerank_k;
        }
      }
    }
  }
}

/// IvfIndex::Query's SQ8 path with the re-rank cutoff taken by copying
/// every approximate score and running std::nth_element over the copy.
/// Probes as FloatProbe does, scans with sq8::ScanDots over codes encoded
/// as Build encodes them, keeps every candidate with approx >= T - 2B, and
/// re-ranks those exactly. Sets *rerank_rows to the survivor count.
RankedList NthElementCutoffQuery(const IvfIndex& index, const Matrix& catalog,
                                 const float* query, size_t k, size_t nprobe,
                                 size_t rerank_k, size_t* rerank_rows) {
  namespace sq8 = core::kernels::sq8;
  const size_t dim = index.dim();
  std::vector<int8_t> codes(index.size() * dim);
  std::vector<float> scales(index.size());
  for (size_t slot = 0; slot < index.size(); ++slot) {
    sq8::EncodeRow(catalog.row(index.ids()[slot]), dim,
                   codes.data() + slot * dim, &scales[slot]);
  }
  nprobe = std::min(std::max<size_t>(nprobe, 1), index.nlist());
  const RankedList lists =
      TopKInnerProduct(query, dim, index.centroids(), index.nlist());
  const size_t want = std::min(k, index.size());
  sq8::RowRanges ranges;
  size_t total = 0;
  float band_scale = 0.0f;
  for (size_t used = 0;
       used < lists.size() && (used < nprobe || total < want); ++used) {
    const uint32_t list = lists[used].first;
    const uint32_t begin = index.list_offsets()[list],
                   end = index.list_offsets()[list + 1];
    ranges.emplace_back(begin, end);
    total += end - begin;
    for (uint32_t r = begin; r < end; ++r) {
      band_scale = std::max(band_scale, scales[r]);
    }
  }
  k = std::min(k, total);
  const sq8::QueryCodes qc = sq8::QuantizeQuery(query, dim);
  std::vector<float> approx(total);
  sq8::ScanDots(qc, codes.data(), scales.data(), dim, ranges, approx.data());
  const size_t r_depth = std::min(IvfIndex::ResolveRerankK(rerank_k, k), total);
  double cutoff = -std::numeric_limits<double>::infinity();
  if (r_depth < total) {
    std::vector<float> top(approx);
    std::nth_element(top.begin(), top.begin() + (r_depth - 1), top.end(),
                     std::greater<float>());
    cutoff = static_cast<double>(top[r_depth - 1]) -
             2.0 * static_cast<double>(band_scale) *
                 qc.ErrorBandPerUnitScale(dim);
  }
  RankedList survivors;
  size_t slot = 0;
  for (const auto& [begin, end] : ranges) {
    for (uint32_t r = begin; r < end; ++r, ++slot) {
      if (static_cast<double>(approx[slot]) >= cutoff) {
        const uint32_t id = index.ids()[r];
        survivors.emplace_back(
            id, core::kernels::DotRowDouble(query, catalog.row(id), dim));
      }
    }
  }
  *rerank_rows = survivors.size();
  std::sort(survivors.begin(), survivors.end(), core::kernels::RanksBefore);
  survivors.resize(std::min(k, survivors.size()));
  return survivors;
}

// The bounded cutoff selects what a full copy + nth_element selects: the
// same re-ranked row count and the same answer at every nprobe and
// rerank_k, on catalogs with duplicate rows and 1e-7 near-ties, for a zero
// query (every approximate score +0) and for a catalog and query scaled by
// 1e-30, whose approximate scores all underflow to +0 or -0.
TEST(Sq8OracleTest, BoundedCutoffMatchesNthElementCutoff) {
  for (uint64_t seed : {3u, 7u, 15u, 21u}) {
    for (const float magnitude : {1.0f, 1e-30f}) {
      Matrix catalog = AdversarialCatalog(seed);
      for (size_t i = 0; i < catalog.size(); ++i) {
        catalog.data()[i] *= magnitude;
      }
      const size_t n = catalog.rows(), dim = catalog.cols();
      const IvfIndex index =
          IvfIndex::Build(catalog, Sq8Config(5 + seed % 7, seed));
      core::Rng qrng(seed + 17);
      Matrix q = Matrix::Randn(2, dim, &qrng);
      const float* row = catalog.row(seed % n);
      std::vector<std::vector<float>> queries = {
          std::vector<float>(q.row(0), q.row(0) + dim),
          std::vector<float>(row, row + dim), std::vector<float>(dim, 0.0f)};
      for (float& v : queries[0]) v *= magnitude;
      for (const auto& query : queries) {
        for (size_t k : {size_t{1}, size_t{10}}) {
          for (size_t nprobe = 1; nprobe <= index.nlist(); ++nprobe) {
            for (size_t rerank_k : {k, size_t{0}, size_t{31}, n + 5}) {
              size_t want_rows = 0;
              const RankedList want = NthElementCutoffQuery(
                  index, catalog, query.data(), k, nprobe, rerank_k,
                  &want_rows);
              IvfIndex::QueryStats stats;
              const RankedList got =
                  index.Query(query.data(), k, nprobe, rerank_k, &stats);
              ASSERT_EQ(stats.rerank_rows, want_rows)
                  << "seed " << seed << " magnitude " << magnitude << " k "
                  << k << " nprobe " << nprobe << " rerank " << rerank_k;
              ASSERT_EQ(got, want)
                  << "seed " << seed << " magnitude " << magnitude << " k "
                  << k << " nprobe " << nprobe << " rerank " << rerank_k;
            }
          }
        }
      }
    }
  }
}

// Per-query recall@10 stays monotone in nprobe on the quantized path, and
// is INVARIANT in rerank_k (the band guarantee's strongest consequence —
// asserted as equality, which implies the satellite's monotonicity).
TEST(Sq8RecallTest, RecallMonotoneInNprobeAndInvariantInRerankK) {
  for (uint64_t seed : {11u, 14u}) {
    const Matrix catalog = ClusteredCatalog(seed, 16, 40, 12);
    const IvfIndex index = IvfIndex::Build(catalog, Sq8Config(16, seed));
    core::Rng qrng(seed + 1);
    Matrix queries = Matrix::Randn(6, 12, &qrng, 0.0f, 4.0f);
    for (size_t qi = 0; qi < queries.rows(); ++qi) {
      const RankedList truth =
          TopKInnerProduct(queries.row(qi), 12, catalog, 10);
      double prev = -1.0;
      for (size_t nprobe = 1; nprobe <= index.nlist(); ++nprobe) {
        const RankedList got = index.Query(queries.row(qi), 10, nprobe);
        const double recall = RecallAgainst(truth, got);
        ASSERT_GE(recall, prev) << "seed " << seed << " nprobe " << nprobe;
        prev = recall;
        for (size_t rerank_k : {size_t{10}, size_t{20}, size_t{40},
                                catalog.rows()}) {
          ASSERT_EQ(index.Query(queries.row(qi), 10, nprobe, rerank_k), got)
              << "rerank_k must not change results (band guarantee)";
        }
      }
      EXPECT_EQ(prev, 1.0) << "full probe must be exact";
    }
  }
}

TEST(Sq8BuildTest, ResolveRerankKDefaults) {
  EXPECT_EQ(IvfIndex::ResolveRerankK(0, 10), 40u);   // max(4k, 32)
  EXPECT_EQ(IvfIndex::ResolveRerankK(0, 1), 32u);
  EXPECT_EQ(IvfIndex::ResolveRerankK(5, 10), 10u);   // clamp up to k
  EXPECT_EQ(IvfIndex::ResolveRerankK(64, 10), 64u);
}

// The headline storage claim, asserted: SQ8 list storage is ~4x below
// float rows (exactly 4d / (d + 4): one int8 code per coordinate plus one
// float scale per row), and the whole-index footprint stays below them.
TEST(Sq8MemoryTest, ListStorageIsRoughly4xSmaller) {
  const Matrix catalog = ClusteredCatalog(31, 8, 40, 64);
  const IvfIndex sq = IvfIndex::Build(catalog, Sq8Config(8, 31));
  const size_t n = catalog.rows(), dim = catalog.cols();
  const size_t float_bytes = n * dim * sizeof(float);
  EXPECT_EQ(sq.ListStorageBytes(), n * dim + n * sizeof(float));
  const double ratio = static_cast<double>(float_bytes) /
                       static_cast<double>(sq.ListStorageBytes());
  EXPECT_GE(ratio, 3.5) << "dim 64 should be ~3.76x";
  EXPECT_LT(sq.MemoryBytes(), float_bytes);
  EXPECT_GT(sq.MemoryBytes(), sq.ListStorageBytes());  // shared parts counted
}

// ---------------------------------------------------- SQ8 persistence

TEST(Sq8PersistenceTest, RoundTripRequiresCatalogAttachAndServesIdentically) {
  const Matrix catalog = AdversarialCatalog(55);
  const IvfIndex index =
      IvfIndex::Build(catalog, Sq8Config(11, 55, /*nprobe=*/3,
                                         /*rerank_k=*/17));
  const std::string path = TempPath("sq8_roundtrip");
  ASSERT_TRUE(index.Save(path).ok());
  auto loaded = IvfIndex::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  IvfIndex& back = loaded.value();
  EXPECT_FALSE(back.has_rerank_catalog());  // codes travel, catalog doesn't
  EXPECT_EQ(back.size(), index.size());
  EXPECT_EQ(back.nlist(), index.nlist());
  EXPECT_EQ(back.seed(), index.seed());
  EXPECT_EQ(back.default_rerank_k(), 17u);
  EXPECT_EQ(back.default_nprobe(), index.default_nprobe());
  back.AttachRerankCatalog(catalog);
  core::Rng qrng(56);
  Matrix q = Matrix::Randn(4, catalog.cols(), &qrng);
  for (size_t qi = 0; qi < 4; ++qi) {
    for (size_t nprobe : {size_t{1}, size_t{3}, index.nlist()}) {
      EXPECT_EQ(index.Query(q.row(qi), 10, nprobe),
                back.Query(q.row(qi), 10, nprobe));
    }
  }
  std::remove(path.c_str());
}

// The float-list GIV1 container is retired: a dump carrying its magic is
// refused with an error that names the format, so an operator knows to
// rebuild rather than hunt for corruption.
TEST(Sq8PersistenceTest, Giv1DumpRejectedWithNamedError) {
  const std::string path = TempPath("giv1_rejected");
  {
    // GIV1 header: magic, version 1, four sections (meta, centroids,
    // lists, vectors) — the body is never reached.
    std::ofstream f(path, std::ios::binary | std::ios::trunc);
    f.write("GIV1", 4);
    const uint32_t version = 1, num_sections = 4;
    f.write(reinterpret_cast<const char*>(&version), sizeof(version));
    f.write(reinterpret_cast<const char*>(&num_sections),
            sizeof(num_sections));
  }
  auto loaded = IvfIndex::Load(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(loaded.status().message().find("GIV1"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

// Bit-flip matrix over the GIV2 container: every sampled position — the
// header, meta, centroids, lists, and the new codes and scales sections —
// must be rejected at load.
TEST(Sq8PersistenceTest, AnyFlippedBitRejected) {
  const Matrix catalog = AdversarialCatalog(66);
  const IvfIndex index = IvfIndex::Build(catalog, Sq8Config(5, 66));
  const std::string path = TempPath("sq8_bitflip");
  ASSERT_TRUE(index.Save(path).ok());
  const std::string clean = ReadAllBytes(path);
  ASSERT_FALSE(clean.empty());
  for (size_t pos = 0; pos < clean.size(); pos += 97) {
    std::string corrupt = clean;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x04);
    {
      std::ofstream f(path, std::ios::binary | std::ios::trunc);
      f.write(corrupt.data(), static_cast<std::streamsize>(corrupt.size()));
    }
    auto r = IvfIndex::Load(path);
    EXPECT_FALSE(r.ok()) << "flip at byte " << pos << " was accepted";
  }
  std::remove(path.c_str());
}

constexpr const char* kGiv2Sections[] = {"meta", "centroids", "lists",
                                         "codes", "scales"};
constexpr core::SectionedFile kGiv2{"GIV2", 1, kGiv2Sections};

/// The five GIV2 payloads of `bytes` as views, through the core container
/// reader.
std::vector<std::string_view> Giv2Sections(const std::string& bytes) {
  auto sections = kGiv2.Decode(bytes, "test");
  EXPECT_TRUE(sections.ok()) << sections.status().ToString();
  return sections.ok() ? *sections : std::vector<std::string_view>{};
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// Saves `index`, lets `edit` change section `section` of the dump, and
/// reseals it with the container writer so every CRC is valid again:
/// only Load's structural checks stand between the edit and serving.
template <typename Edit>
void SaveEditedAndResealed(const IvfIndex& index, const std::string& path,
                           size_t section, Edit edit) {
  ASSERT_TRUE(index.Save(path).ok());
  const std::string clean = ReadAllBytes(path);
  const std::vector<std::string_view> views = Giv2Sections(clean);
  ASSERT_EQ(views.size(), 5u);
  std::vector<std::string> payloads(views.begin(), views.end());
  edit(&payloads[section]);
  WriteBytes(path, kGiv2.Encode({payloads[0], payloads[1], payloads[2],
                                 payloads[3], payloads[4]}));
}

// Every section — meta, centroids, lists, codes and scales — is named when
// its CRC trips, so the on-call log localizes which payload rotted.
TEST(Sq8PersistenceTest, CorruptCodesAndScalesSectionsAreNamed) {
  const Matrix catalog = AdversarialCatalog(68);
  const size_t n = catalog.rows(), dim = catalog.cols();
  const IvfIndex index = IvfIndex::Build(catalog, Sq8Config(5, 68));
  const std::string path = TempPath("sq8_named");
  ASSERT_TRUE(index.Save(path).ok());
  const std::string clean = ReadAllBytes(path);
  const std::vector<std::string_view> sections = Giv2Sections(clean);
  ASSERT_EQ(sections.size(), 5u);
  // Payload sizes: meta 48, centroids nlist*dim*4, lists (nlist+1+n)*4,
  // codes n*dim, scales n*4; scales end the file.
  EXPECT_EQ(sections[0].size(), 48u);
  EXPECT_EQ(sections[1].size(), index.nlist() * dim * sizeof(float));
  EXPECT_EQ(sections[2].size(), (index.nlist() + 1 + n) * 4);
  EXPECT_EQ(sections[3].size(), n * dim);
  EXPECT_EQ(sections[4].size(), n * sizeof(float));
  ASSERT_EQ(sections[4].data() + sections[4].size(),
            clean.data() + clean.size());
  const size_t within[] = {3, 5, 9, n * dim / 2, 1};
  for (size_t s = 0; s < 5; ++s) {
    const size_t pos =
        static_cast<size_t>(sections[s].data() - clean.data()) + within[s];
    std::string corrupt = clean;
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x10);
    WriteBytes(path, corrupt);
    auto r = IvfIndex::Load(path);
    ASSERT_FALSE(r.ok());
    EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find(kGiv2Sections[s]), std::string::npos)
        << "failing section not named: " << r.status().ToString();
  }
  std::remove(path.c_str());
}

// Centroids are ranked by TopKDot, which needs non-NaN scores; an inf
// centroid coordinate times a zero query coordinate is NaN. A resealed
// dump carrying one must be refused by name.
TEST(Sq8PersistenceTest, NonFiniteCentroidRejected) {
  const Matrix catalog = AdversarialCatalog(69);
  const IvfIndex index = IvfIndex::Build(catalog, Sq8Config(5, 69));
  const std::string path = TempPath("sq8_nonfinite_centroid");
  for (float bad : {std::numeric_limits<float>::infinity(),
                    std::numeric_limits<float>::quiet_NaN()}) {
    SaveEditedAndResealed(index, path, /*centroids*/ 1,
                          [&](std::string* centroids) {
                            std::memcpy(centroids->data() + 4 * 3, &bad, 4);
                          });
    auto r = IvfIndex::Load(path);
    ASSERT_FALSE(r.ok()) << "centroid " << bad << " was accepted";
    EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidArgument);
    EXPECT_NE(r.status().message().find("centroid"), std::string::npos)
        << r.status().ToString();
    EXPECT_NE(r.status().message().find("non-finite"), std::string::npos)
        << r.status().ToString();
  }
  std::remove(path.c_str());
}

// Build always stores a permutation of [0, n); a resealed dump that
// repeats an id would serve that service twice in one answer.
TEST(Sq8PersistenceTest, IdTableNotAPermutationRejected) {
  const Matrix catalog = AdversarialCatalog(70);
  const IvfIndex index = IvfIndex::Build(catalog, Sq8Config(5, 70));
  const std::string path = TempPath("sq8_repeated_id");
  const size_t ids_at = (index.nlist() + 1) * sizeof(uint32_t);
  SaveEditedAndResealed(index, path, /*lists*/ 2, [&](std::string* lists) {
    // ids[1] = ids[0]: in range, so only the permutation check sees it.
    std::memcpy(lists->data() + ids_at + 4, lists->data() + ids_at, 4);
  });
  auto r = IvfIndex::Load(path);
  ASSERT_FALSE(r.ok()) << "repeated id was accepted";
  EXPECT_EQ(r.status().code(), core::StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("permutation"), std::string::npos)
      << r.status().ToString();
  std::remove(path.c_str());
}

// Byte-for-byte pin of the GIV2 encoding: the CRC-32 and size of a fixed
// seeded index, recorded when the container moved to core/sectioned_file.
TEST(Sq8PersistenceTest, GoldenBytesPinned) {
  const Matrix catalog = AdversarialCatalog(21);
  const std::string path = TempPath("sq8_golden");
  ASSERT_TRUE(IvfIndex::Build(catalog, Sq8Config(9, 21)).Save(path).ok());
  const std::string bytes = ReadAllBytes(path);
  EXPECT_EQ(bytes.size(), 2388u);
  EXPECT_EQ(core::Crc32(bytes.data(), bytes.size()), 0x16d3ebefu);
  std::remove(path.c_str());
}

// --------------------------------------------- SQ8 concurrent serving

// The SQ8 EmbeddingRanker through BatchRanker at 1/2/4/8 workers must
// reproduce the serial pass bit for bit — the quantized scan, the band
// cutoff, and the re-rank all shard, and none of it may depend on thread
// count. Runs under TSan in scripts/check.sh.
TEST(Sq8ConcurrencyTest, SharedIndexThroughBatchRankerBitIdenticalToSerial) {
  core::Rng rng(77);
  const size_t num_queries = 60, dim = 16;
  Matrix query_emb = Matrix::Randn(num_queries, dim, &rng);
  Matrix service_emb = ClusteredCatalog(78, 10, 50, dim);
  RetrievalConfig cfg = Sq8Config(10, 13, /*nprobe=*/4);
  auto ranker = std::make_shared<EmbeddingRanker>(
      EmbeddingStore(query_emb), EmbeddingStore(service_emb), cfg);
  ASSERT_NE(ranker->index(), nullptr);

  std::vector<ServeRequest> requests;
  for (size_t i = 0; i < 400; ++i) {
    requests.push_back({static_cast<uint32_t>(i % num_queries), 10});
  }
  ServeConfig serial_cfg;
  serial_cfg.num_threads = 0;
  BatchRanker serial(ranker, serial_cfg);
  const std::vector<RankedList> ref = serial.RankBatch(requests);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    ServeConfig par_cfg;
    par_cfg.num_threads = threads;
    BatchRanker batch(ranker, par_cfg);
    const std::vector<RankedList> got = batch.RankBatch(requests);
    ASSERT_EQ(got.size(), ref.size());
    for (size_t i = 0; i < ref.size(); ++i) {
      ASSERT_EQ(got[i], ref[i]) << "threads " << threads << " request " << i;
    }
  }
}

TEST(EmbeddingRankerIvfTest, Sq8FullProbeModeMatchesBruteForceRanker) {
  core::Rng rng(91);
  const size_t dim = 8;
  Matrix query_emb = Matrix::Randn(12, dim, &rng);
  Matrix service_emb = Matrix::Randn(150, dim, &rng);
  EmbeddingRanker brute{EmbeddingStore(query_emb),
                        EmbeddingStore(service_emb)};
  EmbeddingRanker sq8(EmbeddingStore(query_emb), EmbeddingStore(service_emb),
                      Sq8Config(6, 13, /*nprobe=*/6, /*rerank_k=*/10));
  for (uint32_t q = 0; q < 12; ++q) {
    for (size_t k : {size_t{1}, size_t{10}, service_emb.rows()}) {
      EXPECT_EQ(sq8.Rank(q, k), brute.Rank(q, k)) << "query " << q;
    }
  }
  EXPECT_EQ(std::string(RetrievalModeName(sq8.retrieval().mode)), "ivf-sq8");
  EXPECT_EQ(std::string(RetrievalModeName(brute.retrieval().mode)),
            "brute-force");
}

}  // namespace
}  // namespace garcia::serving
