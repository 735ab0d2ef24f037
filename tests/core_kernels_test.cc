// Bit-identity of the parallel kernel backend against the serial reference.
//
// Every EXPECT here is exact (EXPECT_EQ on floats, not near): the execution
// layer's contract is that an ExecutionContext with any thread count
// reproduces the serial backend bit for bit (see core/kernels.h). Shapes are
// randomized and sized past the kernels' shard floors so the parallel paths
// genuinely shard.

#include "core/kernels.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"

namespace garcia::core {
namespace {

Matrix RandMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal());
  }
  return m;
}

std::vector<uint32_t> RandIndices(size_t n, size_t max_exclusive, Rng* rng) {
  std::vector<uint32_t> idx(n);
  for (auto& v : idx) {
    v = static_cast<uint32_t>(rng->UniformInt(max_exclusive));
  }
  return idx;
}

/// The exact retrieval score as a plain loop, independent of core/kernels.h:
/// double products of widened floats summed in ascending column order.
float ScalarDot(const float* q, const float* r, size_t dim) {
  double dot = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    dot += static_cast<double>(q[j]) * static_cast<double>(r[j]);
  }
  return static_cast<float>(dot);
}

void ExpectBitIdentical(const Matrix& serial, const Matrix& parallel,
                        const char* what) {
  ASSERT_EQ(serial.rows(), parallel.rows()) << what;
  ASSERT_EQ(serial.cols(), parallel.cols()) << what;
  for (size_t i = 0; i < serial.size(); ++i) {
    ASSERT_EQ(serial.data()[i], parallel.data()[i])
        << what << " diverges at flat index " << i;
  }
}

class KernelsBitIdentityTest : public ::testing::Test {
 protected:
  // 3 and 4 workers: both an even and an uneven divisor of typical shapes.
  ExecutionContext par3_{3};
  ExecutionContext par4_{4};
  Rng rng_{1234};
};

TEST_F(KernelsBitIdentityTest, GemmRandomizedShapes) {
  for (int trial = 0; trial < 8; ++trial) {
    const size_t m = 1 + rng_.UniformInt(96);
    const size_t k = 1 + rng_.UniformInt(48);
    const size_t n = 1 + rng_.UniformInt(64);
    const bool ta = rng_.Bernoulli(0.5), tb = rng_.Bernoulli(0.5);
    Matrix a = RandMatrix(ta ? k : m, ta ? m : k, &rng_);
    Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
    Matrix c0 = RandMatrix(m, n, &rng_);
    Matrix c1 = c0;
    const float alpha = 1.7f, beta = trial % 2 ? 0.3f : 0.0f;
    kernels::Gemm(SerialExecution(), ta, tb, alpha, a, b, beta, &c0);
    kernels::Gemm(trial % 2 ? par3_ : par4_, ta, tb, alpha, a, b, beta, &c1);
    ExpectBitIdentical(c0, c1, "Gemm");
  }
}

TEST_F(KernelsBitIdentityTest, GemmLargeSquare) {
  Matrix a = RandMatrix(128, 128, &rng_);
  Matrix b = RandMatrix(128, 128, &rng_);
  Matrix c0(128, 128), c1(128, 128);
  kernels::Gemm(SerialExecution(), false, false, 1.0f, a, b, 0.0f, &c0);
  kernels::Gemm(par4_, false, false, 1.0f, a, b, 0.0f, &c1);
  ExpectBitIdentical(c0, c1, "Gemm 128^3");
}

TEST_F(KernelsBitIdentityTest, UnaryForwardAndBackward) {
  const kernels::UnaryOp ops[] = {
      kernels::UnaryOp::kRelu, kernels::UnaryOp::kTanh,
      kernels::UnaryOp::kLeakyRelu, kernels::UnaryOp::kSigmoid};
  // Large enough to clear kMinElemsPerShard on the parallel backend.
  const size_t n = 40000 + rng_.UniformInt(5000);
  Matrix x = RandMatrix(n, 1, &rng_);
  Matrix dy = RandMatrix(n, 1, &rng_);
  for (kernels::UnaryOp op : ops) {
    Matrix y0(n, 1), y1(n, 1);
    kernels::UnaryForward(SerialExecution(), op, 0.01f, x.data(), y0.data(),
                          n);
    kernels::UnaryForward(par4_, op, 0.01f, x.data(), y1.data(), n);
    ExpectBitIdentical(y0, y1, "UnaryForward");

    Matrix dx0 = RandMatrix(n, 1, &rng_);
    Matrix dx1 = dx0;
    kernels::UnaryBackwardAdd(SerialExecution(), op, 0.01f, x.data(),
                              y0.data(), dy.data(), dx0.data(), n);
    kernels::UnaryBackwardAdd(par3_, op, 0.01f, x.data(), y1.data(),
                              dy.data(), dx1.data(), n);
    ExpectBitIdentical(dx0, dx1, "UnaryBackwardAdd");
  }
}

TEST_F(KernelsBitIdentityTest, GatherAndGatherAdd) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t src_rows = 50 + rng_.UniformInt(200);
    const size_t cols = 1 + rng_.UniformInt(40);
    const size_t n = 500 + rng_.UniformInt(3000);
    Matrix src = RandMatrix(src_rows, cols, &rng_);
    std::vector<uint32_t> idx = RandIndices(n, src_rows, &rng_);

    Matrix out0(n, cols), out1(n, cols);
    kernels::GatherRows(SerialExecution(), src, idx, &out0);
    kernels::GatherRows(par4_, src, idx, &out1);
    ExpectBitIdentical(out0, out1, "GatherRows");

    Matrix acc0 = RandMatrix(n, cols, &rng_);
    Matrix acc1 = acc0;
    kernels::GatherAddRows(SerialExecution(), src, idx, &acc0);
    kernels::GatherAddRows(par3_, src, idx, &acc1);
    ExpectBitIdentical(acc0, acc1, "GatherAddRows");
  }
}

TEST_F(KernelsBitIdentityTest, ScatterAddRandomizedCollisions) {
  for (int trial = 0; trial < 4; ++trial) {
    // Few destinations + many sources forces heavy collisions, where a
    // naive parallel scatter would be both racy and order-divergent.
    const size_t dests = 3 + rng_.UniformInt(60);
    const size_t cols = 1 + rng_.UniformInt(24);
    const size_t n = 4096 + rng_.UniformInt(4096);
    Matrix src = RandMatrix(n, cols, &rng_);
    std::vector<uint32_t> idx = RandIndices(n, dests, &rng_);

    Matrix acc0 = RandMatrix(dests, cols, &rng_);
    Matrix acc1 = acc0;
    kernels::ScatterAddRows(SerialExecution(), src, idx, &acc0);
    kernels::ScatterAddRows(trial % 2 ? par3_ : par4_, src, idx, &acc1);
    ExpectBitIdentical(acc0, acc1, "ScatterAddRows");
  }
}

TEST_F(KernelsBitIdentityTest, SegmentSumWithEmptySegments) {
  const size_t segments = 300;  // some never referenced
  const size_t cols = 16;
  const size_t n = 8000;
  Matrix x = RandMatrix(n, cols, &rng_);
  std::vector<uint32_t> seg = RandIndices(n, segments / 2, &rng_);

  Matrix out0(segments, cols), out1(segments, cols);
  kernels::SegmentSum(SerialExecution(), x, seg, segments, &out0);
  kernels::SegmentSum(par4_, x, seg, segments, &out1);
  ExpectBitIdentical(out0, out1, "SegmentSum");
  // Untouched segments stay exactly zero.
  for (size_t s = segments / 2; s < segments; ++s) {
    for (size_t j = 0; j < cols; ++j) EXPECT_EQ(out0.at(s, j), 0.0f);
  }
}

TEST_F(KernelsBitIdentityTest, SegmentSoftmaxForwardBackward) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t segments = 100 + rng_.UniformInt(200);
    const size_t n = 4000 + rng_.UniformInt(4000);
    Matrix scores = RandMatrix(n, 1, &rng_);
    std::vector<uint32_t> seg = RandIndices(n, segments, &rng_);

    Matrix a0(n, 1), a1(n, 1);
    kernels::SegmentSoftmax(SerialExecution(), scores, seg, segments, &a0);
    kernels::SegmentSoftmax(par3_, scores, seg, segments, &a1);
    ExpectBitIdentical(a0, a1, "SegmentSoftmax");

    Matrix da = RandMatrix(n, 1, &rng_);
    Matrix g0 = RandMatrix(n, 1, &rng_);
    Matrix g1 = g0;
    kernels::SegmentSoftmaxBackwardAdd(SerialExecution(), a0, da, seg,
                                       segments, &g0);
    kernels::SegmentSoftmaxBackwardAdd(par4_, a1, da, seg, segments, &g1);
    ExpectBitIdentical(g0, g1, "SegmentSoftmaxBackwardAdd");
  }
}

TEST_F(KernelsBitIdentityTest, ScaleRowsAndRowDot) {
  const size_t n = 3000, cols = 24;
  Matrix a = RandMatrix(n, cols, &rng_);
  Matrix b = RandMatrix(n, cols, &rng_);
  Matrix w = RandMatrix(n, 1, &rng_);

  Matrix s0 = a, s1 = a;
  kernels::ScaleRowsInPlace(SerialExecution(), &s0, w);
  kernels::ScaleRowsInPlace(par4_, &s1, w);
  ExpectBitIdentical(s0, s1, "ScaleRowsInPlace");

  Matrix d0 = RandMatrix(n, 1, &rng_);
  Matrix d1 = d0;
  kernels::RowDotAdd(SerialExecution(), a, b, &d0);
  kernels::RowDotAdd(par3_, a, b, &d1);
  ExpectBitIdentical(d0, d1, "RowDotAdd");
}

TEST_F(KernelsBitIdentityTest, L2NormalizeForwardBackward) {
  const size_t n = 2000, cols = 32;
  Matrix x = RandMatrix(n, cols, &rng_);
  // Plant exact zero rows: they must normalize to zero with zero gradient.
  for (size_t j = 0; j < cols; ++j) x.at(7, j) = x.at(100, j) = 0.0f;
  const float eps = 1e-12f;

  Matrix y0(n, cols), y1(n, cols);
  std::vector<float> norms0, norms1;
  kernels::L2NormalizeRows(SerialExecution(), x, eps, &y0, &norms0);
  kernels::L2NormalizeRows(par4_, x, eps, &y1, &norms1);
  ExpectBitIdentical(y0, y1, "L2NormalizeRows");
  ASSERT_EQ(norms0.size(), norms1.size());
  for (size_t i = 0; i < norms0.size(); ++i) EXPECT_EQ(norms0[i], norms1[i]);

  Matrix dy = RandMatrix(n, cols, &rng_);
  Matrix dx0 = RandMatrix(n, cols, &rng_);
  Matrix dx1 = dx0;
  kernels::L2NormalizeRowsBackwardAdd(SerialExecution(), y0, dy, norms0, eps,
                                      &dx0);
  kernels::L2NormalizeRowsBackwardAdd(par3_, y1, dy, norms1, eps, &dx1);
  ExpectBitIdentical(dx0, dx1, "L2NormalizeRowsBackwardAdd");
}

TEST_F(KernelsBitIdentityTest, CrossEntropyForwardBackward) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t n = 200 + rng_.UniformInt(400);
    const size_t m = 2 + rng_.UniformInt(300);
    Matrix logits = RandMatrix(n, m, &rng_);
    std::vector<uint32_t> targets = RandIndices(n, m, &rng_);

    Matrix sm0 = logits, sm1 = logits;
    const double loss0 =
        kernels::CrossEntropyForward(SerialExecution(), &sm0, targets);
    const double loss1 = kernels::CrossEntropyForward(
        trial % 2 ? par3_ : par4_, &sm1, targets);
    EXPECT_EQ(loss0, loss1);
    ExpectBitIdentical(sm0, sm1, "CrossEntropyForward softmax");

    Matrix g0 = RandMatrix(n, m, &rng_);
    Matrix g1 = g0;
    kernels::CrossEntropyBackwardAdd(SerialExecution(), sm0, targets, 0.125f,
                                     &g0);
    kernels::CrossEntropyBackwardAdd(par4_, sm1, targets, 0.125f, &g1);
    ExpectBitIdentical(g0, g1, "CrossEntropyBackwardAdd");
  }
}

TEST_F(KernelsBitIdentityTest, TopKDotMatchesSerial) {
  // 5000 rows > the 1024-row block size, so the parallel path merges
  // several partial heaps; k sweeps the degenerate cases (0, 1, = n, > n).
  const size_t n = 5000, dim = 24;
  Matrix cands = RandMatrix(n, dim, &rng_);
  Matrix query = RandMatrix(1, dim, &rng_);
  for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 7}) {
    const auto serial =
        kernels::TopKDot(SerialExecution(), query.row(0), dim, cands, k);
    ASSERT_EQ(serial.size(), std::min(k, n));
    const auto par =
        kernels::TopKDot(k % 2 ? par3_ : par4_, query.row(0), dim, cands, k);
    ASSERT_EQ(par.size(), serial.size()) << "k=" << k;
    for (size_t i = 0; i < serial.size(); ++i) {
      ASSERT_EQ(par[i].first, serial[i].first) << "k=" << k << " rank " << i;
      ASSERT_EQ(par[i].second, serial[i].second) << "k=" << k << " rank " << i;
    }
  }

  // k = n at dim 33 over 5003 rows, against a full ranking of test-local
  // scalar scores: 33 leaves a one-column tail after the 4-column blocks
  // and 5003 a 3-row tail after the 8-row groups (plus partial final
  // chunks and blocks), so a lane, group or tail mix-up in the vector
  // path moves some row's score and shows in the ranking, under both the
  // serial and a parallel context.
  const size_t tail_n = 5003, tail_dim = 33;
  Matrix tail_cands = RandMatrix(tail_n, tail_dim, &rng_);
  Matrix tail_query = RandMatrix(1, tail_dim, &rng_);
  std::vector<std::pair<uint32_t, float>> expected(tail_n);
  for (size_t i = 0; i < tail_n; ++i) {
    expected[i] = {static_cast<uint32_t>(i),
                   ScalarDot(tail_query.row(0), tail_cands.row(i), tail_dim)};
  }
  std::sort(expected.begin(), expected.end(),
            [](const auto& a, const auto& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  for (const ExecutionContext* ctx :
       {&SerialExecution(), static_cast<const ExecutionContext*>(&par3_)}) {
    const auto got = kernels::TopKDot(*ctx, tail_query.row(0), tail_dim,
                                      tail_cands, tail_n);
    ASSERT_EQ(got.size(), tail_n);
    for (size_t i = 0; i < tail_n; ++i) {
      ASSERT_EQ(got[i].first, expected[i].first)
          << "threads=" << ctx->num_threads() << " rank " << i;
      ASSERT_EQ(
          std::memcmp(&got[i].second, &expected[i].second, sizeof(float)), 0)
          << "threads=" << ctx->num_threads() << " rank " << i;
    }
  }
}

TEST_F(KernelsBitIdentityTest, ExactDotRowsMatchScalarReference) {
  // Every TopKDot scoring path against the test-local scalar expression,
  // memcmp-equal. Row counts straddle the 8-row groups, dims straddle the
  // 4-column blocks, and the rows are adversarial for a reordered or
  // fused sum: magnitudes 1e-30..1e30 (some scores overflow to +-inf in
  // the final cast), subnormals, near-total cancellation, zero rows, and
  // duplicate rows (exact ties).
  using RowsFn = void (*)(const float*, const float*, size_t, size_t, float*);
  std::vector<std::pair<const char*, RowsFn>> paths = {
      {"scalar", &kernels::internal::DotRowsScalar}};
  if (kernels::internal::HasAvx2()) {
    paths.push_back({"avx2", &kernels::internal::DotRowsAvx2});
  }
  const float denorm = std::numeric_limits<float>::denorm_min();
  auto wide = [&] {  // normal draw scaled by 10^[-30, 30]
    const double e = -30.0 + 60.0 * rng_.Uniform();
    return static_cast<float>(rng_.Normal() * std::pow(10.0, e));
  };
  for (size_t dim : {1, 3, 4, 5, 31, 32, 33, 64}) {
    // Queries: unit normal, wide-magnitude, and one with subnormal and
    // zero coordinates.
    std::vector<std::vector<float>> queries(3, std::vector<float>(dim));
    for (size_t j = 0; j < dim; ++j) {
      queries[0][j] = static_cast<float>(rng_.Normal());
      queries[1][j] = wide();
      queries[2][j] = j % 3 == 0   ? 0.0f
                      : j % 3 == 1 ? denorm * static_cast<float>(1 + j)
                                   : static_cast<float>(rng_.Normal());
    }
    for (size_t n : {0, 1, 7, 8, 9, 255, 257, 1025}) {
      // Exactly n * dim floats, so ASan flags any read past the last row.
      std::vector<float> rows(n * dim);
      for (size_t i = 0; i < n; ++i) {
        float* r = rows.data() + i * dim;
        switch (i % 6) {
          case 0:  // unit normal
            for (size_t j = 0; j < dim; ++j) {
              r[j] = static_cast<float>(rng_.Normal());
            }
            break;
          case 1:  // wide magnitudes, mixed within the row
            for (size_t j = 0; j < dim; ++j) r[j] = wide();
            break;
          case 2:  // subnormals
            for (size_t j = 0; j < dim; ++j) {
              r[j] = (j % 2 ? -1.0f : 1.0f) * denorm *
                     static_cast<float>(1 + rng_.UniformInt(uint64_t{1000}));
            }
            break;
          case 3: {  // huge term pairs that cancel against queries[0]
            const std::vector<float>& q0 = queries[0];
            for (size_t j = 0; j < dim; ++j) {
              r[j] = static_cast<float>(rng_.Normal());
            }
            for (size_t j = 0; j + 1 < dim; j += 2) {
              r[j] = 1e20f * static_cast<float>(rng_.Normal());
              const double partner = -static_cast<double>(r[j]) * q0[j] /
                                     static_cast<double>(q0[j + 1]);
              if (std::isfinite(static_cast<float>(partner))) {
                r[j + 1] = static_cast<float>(partner);
              }
            }
            break;
          }
          case 4:  // zero row
            break;
          default:  // duplicate of an earlier row: an exact tie
            std::copy(rows.data() + (i / 2) * dim,
                      rows.data() + (i / 2 + 1) * dim, r);
            break;
        }
      }
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const float* q = queries[qi].data();
        std::vector<float> expected(n);
        for (size_t i = 0; i < n; ++i) {
          expected[i] = ScalarDot(q, rows.data() + i * dim, dim);
        }
        for (const auto& [name, fn] : paths) {
          std::vector<float> got(n, std::numeric_limits<float>::quiet_NaN());
          fn(q, rows.data(), n, dim, got.data());
          for (size_t i = 0; i < n; ++i) {
            ASSERT_EQ(std::memcmp(&got[i], &expected[i], sizeof(float)), 0)
                << name << " dim=" << dim << " n=" << n << " query=" << qi
                << " row " << i << ": " << got[i] << " vs " << expected[i];
          }
        }
      }
    }
  }
}

TEST_F(KernelsBitIdentityTest, ScopedExecutionInstallsAndRestores) {
  EXPECT_FALSE(CurrentExecution().parallel());
  {
    ScopedExecution outer(&par4_);
    EXPECT_TRUE(CurrentExecution().parallel());
    EXPECT_EQ(CurrentExecution().num_threads(), 4u);
    {
      ScopedExecution inner(nullptr);  // nullptr keeps the current default
      EXPECT_TRUE(CurrentExecution().parallel());
    }
    {
      ScopedExecution inner(&par3_);
      EXPECT_EQ(CurrentExecution().num_threads(), 3u);
    }
    EXPECT_EQ(CurrentExecution().num_threads(), 4u);
  }
  EXPECT_FALSE(CurrentExecution().parallel());
}

TEST_F(KernelsBitIdentityTest, SerialContextNeverCreatesPool) {
  ExecutionContext serial0(0), serial1(1);
  EXPECT_FALSE(serial0.parallel());
  EXPECT_FALSE(serial1.parallel());
  EXPECT_EQ(serial0.num_threads(), 1u);
  EXPECT_EQ(serial1.num_threads(), 1u);
}

// ----------------------------------------------------------- sq8 kernels

TEST_F(KernelsBitIdentityTest, Sq8EncodeRowsMatchesSerialAndBoundsError) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t rows = 30 + rng_.UniformInt(600);
    const size_t dim = 1 + rng_.UniformInt(300);  // crosses kDimBlock at 257+
    Matrix src = RandMatrix(rows, dim, &rng_);
    std::fill(src.row(0), src.row(0) + dim, 0.0f);  // zero-row edge
    std::vector<int8_t> c0(rows * dim), c1(rows * dim);
    std::vector<float> s0(rows), s1(rows);
    kernels::sq8::EncodeRows(SerialExecution(), src, c0.data(), s0.data());
    kernels::sq8::EncodeRows(trial % 2 ? par3_ : par4_, src, c1.data(),
                             s1.data());
    ASSERT_EQ(c0, c1) << "codes diverge";
    ASSERT_EQ(s0, s1) << "scales diverge";
    EXPECT_EQ(s0[0], 0.0f);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < dim; ++j) {
        const float v = src.at(r, j);
        const float dequant = s0[r] * static_cast<float>(c0[r * dim + j]);
        // s/2 plus a hair of float rounding from the dequant product.
        ASSERT_LE(std::fabs(v - dequant), s0[r] * 0.5f * 1.001f + 1e-6f)
            << "per-coordinate bound violated at (" << r << "," << j << ")";
        ASSERT_GE(c0[r * dim + j], -127);  // -128 slot unused
      }
    }
  }
}

TEST_F(KernelsBitIdentityTest, Sq8ScanDotsMatchesSerialOverRanges) {
  const size_t rows = 700, dim = 280;  // > kDimBlock: exercises blocking
  Matrix src = RandMatrix(rows, dim, &rng_);
  std::vector<int8_t> codes(rows * dim);
  std::vector<float> scales(rows);
  kernels::sq8::EncodeRows(SerialExecution(), src, codes.data(),
                           scales.data());
  Matrix q = RandMatrix(1, dim, &rng_);
  const auto qc = kernels::sq8::QuantizeQuery(q.row(0), dim);
  // Ranges with gaps, an empty range, and out-of-order starts.
  const std::vector<std::pair<uint32_t, uint32_t>> ranges = {
      {500, 700}, {40, 40}, {0, 260}, {300, 450}};
  const size_t total = 200 + 0 + 260 + 150;
  std::vector<float> out0(total), out1(total), out2(total);
  kernels::sq8::ScanDots(SerialExecution(), qc, codes.data(), scales.data(),
                         dim, ranges, out0.data());
  kernels::sq8::ScanDots(par3_, qc, codes.data(), scales.data(), dim, ranges,
                         out1.data());
  kernels::sq8::ScanDots(par4_, qc, codes.data(), scales.data(), dim, ranges,
                         out2.data());
  ASSERT_EQ(out0, out1);
  ASSERT_EQ(out0, out2);
  // Exact-value check against a scalar integer model of the contract:
  // int32 sums per 256-coordinate block, widened to double at boundaries,
  // scaled once. ScanDots may dispatch to a SIMD backend at runtime; its
  // lane sums are a reassociation of the same int32 terms, so the float
  // bits must match this model exactly on every machine.
  {
    size_t slot = 0;
    for (const auto& [lo, hi] : ranges) {
      for (uint32_t r = lo; r < hi; ++r, ++slot) {
        double total = 0.0;
        for (size_t j0 = 0; j0 < dim; j0 += 256) {
          int32_t acc = 0;
          for (size_t j = j0; j < std::min(dim, j0 + 256); ++j) {
            acc += static_cast<int32_t>(qc.codes[j]) * codes[r * dim + j];
          }
          total += static_cast<double>(acc);
        }
        ASSERT_EQ(out0[slot],
                  static_cast<float>(static_cast<double>(qc.scale) *
                                     static_cast<double>(scales[r]) * total))
            << "row " << r << " diverges from the scalar integer model";
      }
    }
  }
  // Every scanned score stays inside the advertised error band of the
  // exact double-accumulated dot — the invariant the IVF re-rank builds on.
  const double band_per_scale = qc.ErrorBandPerUnitScale(dim);
  size_t slot = 0;
  for (const auto& [lo, hi] : ranges) {
    for (uint32_t r = lo; r < hi; ++r, ++slot) {
      double exact = 0.0;
      for (size_t j = 0; j < dim; ++j) {
        exact += static_cast<double>(q.at(0, j)) * src.at(r, j);
      }
      ASSERT_LE(std::fabs(static_cast<double>(out0[slot]) -
                          static_cast<float>(exact)),
                static_cast<double>(scales[r]) * band_per_scale)
          << "row " << r << " breaches the error band";
    }
  }
}

TEST_F(KernelsBitIdentityTest, Sq8ZeroQueryAndZeroRowsScanToExactZero) {
  const size_t rows = 8, dim = 16;
  Matrix src(rows, dim);  // all-zero catalog
  std::vector<int8_t> codes(rows * dim);
  std::vector<float> scales(rows);
  kernels::sq8::EncodeRows(SerialExecution(), src, codes.data(),
                           scales.data());
  std::vector<float> zq(dim, 0.0f);
  const auto qc = kernels::sq8::QuantizeQuery(zq.data(), dim);
  EXPECT_EQ(qc.scale, 0.0f);
  EXPECT_EQ(qc.abs_code_sum, 0u);
  EXPECT_EQ(qc.ErrorBandPerUnitScale(dim), 0.0);
  std::vector<float> out(rows, -1.0f);
  kernels::sq8::ScanDots(SerialExecution(), qc, codes.data(), scales.data(),
                         dim, {{0, static_cast<uint32_t>(rows)}}, out.data());
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace garcia::core
