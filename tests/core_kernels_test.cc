// Bit-identity of the kernels against plain reference loops.
//
// Every EXPECT here is exact (EXPECT_EQ on floats, not near). The serial
// kernels are checked against loops written in this file — the reductions
// against destination-major loops, which add each destination's sources in
// ascending order, the order the kernels promise. Gemm has its own suite,
// core_gemm_test.

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

/// Each destination's source ids, ascending: the destination-major view the
/// reduction references walk.
std::vector<std::vector<uint32_t>> SourcesByDest(
    const std::vector<uint32_t>& idx, size_t dests) {
  std::vector<std::vector<uint32_t>> by_dest(dests);
  for (size_t e = 0; e < idx.size(); ++e) {
    by_dest[idx[e]].push_back(static_cast<uint32_t>(e));
  }
  return by_dest;
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

void ExpectBitIdentical(const Matrix& want, const Matrix& got,
                        const char* what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want.data()[i], got.data()[i])
        << what << " diverges at flat index " << i;
  }
}

class KernelsBitIdentityTest : public ::testing::Test {
 protected:
  Rng rng_{1234};
};

TEST_F(KernelsBitIdentityTest, UnaryForwardAndBackward) {
  const kernels::UnaryOp ops[] = {
      kernels::UnaryOp::kRelu, kernels::UnaryOp::kTanh,
      kernels::UnaryOp::kLeakyRelu, kernels::UnaryOp::kSigmoid};
  const float slope = 0.01f;
  const size_t n = 4000 + rng_.UniformInt(500);
  Matrix x = RandMatrix(n, 1, &rng_);
  x.at(0, 0) = 0.0f;  // the kink: ReLU and LeakyReLU take the x <= 0 branch
  Matrix dy = RandMatrix(n, 1, &rng_);
  for (kernels::UnaryOp op : ops) {
    Matrix y(n, 1);
    kernels::UnaryForward(op, slope, x.data(), y.data(), n);
    Matrix dx = RandMatrix(n, 1, &rng_);
    Matrix want_dx = dx;
    kernels::UnaryBackwardAdd(op, slope, x.data(), y.data(), dy.data(),
                              dx.data(), n);

    Matrix want_y(n, 1);
    for (size_t i = 0; i < n; ++i) {
      const float v = x.data()[i];
      const float g = dy.data()[i];
      float& w = want_y.data()[i];
      float& d = want_dx.data()[i];
      switch (op) {
        case kernels::UnaryOp::kRelu:
          w = v > 0.0f ? v : 0.0f;
          if (v > 0.0f) d += g;
          break;
        case kernels::UnaryOp::kTanh:
          w = std::tanh(v);
          d += g * (1.0f - w * w);
          break;
        case kernels::UnaryOp::kLeakyRelu:
          w = v > 0.0f ? v : slope * v;
          d += g * (v > 0.0f ? 1.0f : slope);
          break;
        case kernels::UnaryOp::kSigmoid:
          w = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                        : std::exp(v) / (1.0f + std::exp(v));
          d += g * (w * (1.0f - w));
          break;
      }
    }
    ExpectBitIdentical(want_y, y, "UnaryForward");
    ExpectBitIdentical(want_dx, dx, "UnaryBackwardAdd");

    // x may alias y.
    Matrix in_place = x;
    kernels::UnaryForward(op, slope, in_place.data(), in_place.data(), n);
    ExpectBitIdentical(want_y, in_place, "UnaryForward in place");
  }
}

TEST_F(KernelsBitIdentityTest, GatherAndGatherAdd) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t src_rows = 50 + rng_.UniformInt(200);
    const size_t cols = 1 + rng_.UniformInt(40);
    const size_t n = 500 + rng_.UniformInt(3000);
    Matrix src = RandMatrix(src_rows, cols, &rng_);
    std::vector<uint32_t> idx = RandIndices(n, src_rows, &rng_);

    Matrix out(n, cols);
    kernels::GatherRows(src, idx, &out);
    Matrix acc = RandMatrix(n, cols, &rng_);
    Matrix want_acc = acc;
    kernels::GatherAddRows(src, idx, &acc);

    Matrix want_out(n, cols);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < cols; ++j) {
        want_out.at(i, j) = src.at(idx[i], j);
        want_acc.at(i, j) += src.at(idx[i], j);
      }
    }
    ExpectBitIdentical(want_out, out, "GatherRows");
    ExpectBitIdentical(want_acc, acc, "GatherAddRows");
  }
}

TEST_F(KernelsBitIdentityTest, ScatterAddRandomizedCollisions) {
  for (int trial = 0; trial < 4; ++trial) {
    // Few destinations + many sources forces heavy collisions, where any
    // order other than ascending source per destination shows in the bits.
    const size_t dests = 3 + rng_.UniformInt(60);
    const size_t cols = 1 + rng_.UniformInt(24);
    const size_t n = 4096 + rng_.UniformInt(4096);
    Matrix src = RandMatrix(n, cols, &rng_);
    std::vector<uint32_t> idx = RandIndices(n, dests, &rng_);

    Matrix acc = RandMatrix(dests, cols, &rng_);
    Matrix want = acc;
    kernels::ScatterAddRows(src, idx, &acc);
    const auto by_dest = SourcesByDest(idx, dests);
    for (size_t d = 0; d < dests; ++d) {
      for (uint32_t e : by_dest[d]) {
        for (size_t j = 0; j < cols; ++j) want.at(d, j) += src.at(e, j);
      }
    }
    ExpectBitIdentical(want, acc, "ScatterAddRows");
  }
}

TEST_F(KernelsBitIdentityTest, SegmentSumWithEmptySegments) {
  const size_t segments = 300;  // some never referenced
  const size_t cols = 16;
  const size_t n = 8000;
  Matrix x = RandMatrix(n, cols, &rng_);
  std::vector<uint32_t> seg = RandIndices(n, segments / 2, &rng_);

  Matrix out = RandMatrix(segments, cols, &rng_);  // zeroed by the kernel
  kernels::SegmentSum(x, seg, segments, &out);
  Matrix want(segments, cols);
  const auto by_seg = SourcesByDest(seg, segments);
  for (size_t s = 0; s < segments; ++s) {
    for (uint32_t e : by_seg[s]) {
      for (size_t j = 0; j < cols; ++j) want.at(s, j) += x.at(e, j);
    }
  }
  ExpectBitIdentical(want, out, "SegmentSum");
  // Untouched segments stay exactly zero.
  for (size_t s = segments / 2; s < segments; ++s) {
    for (size_t j = 0; j < cols; ++j) EXPECT_EQ(out.at(s, j), 0.0f);
  }
}

TEST_F(KernelsBitIdentityTest, SegmentSoftmaxForwardBackward) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t segments = 100 + rng_.UniformInt(200);
    const size_t n = 4000 + rng_.UniformInt(4000);
    Matrix scores = RandMatrix(n, 1, &rng_);
    // The last segment is always empty.
    std::vector<uint32_t> seg = RandIndices(n, segments - 1, &rng_);
    const auto by_seg = SourcesByDest(seg, segments);

    Matrix alpha(n, 1);
    kernels::SegmentSoftmax(scores, seg, segments, &alpha);
    Matrix want(n, 1);
    for (const auto& members : by_seg) {
      float mx = -1e30f;
      for (uint32_t e : members) mx = std::max(mx, scores.at(e, 0));
      double sum = 0.0;
      for (uint32_t e : members) {
        want.at(e, 0) = std::exp(scores.at(e, 0) - mx);
        sum += want.at(e, 0);
      }
      for (uint32_t e : members) {
        want.at(e, 0) = static_cast<float>(want.at(e, 0) / sum);
      }
    }
    ExpectBitIdentical(want, alpha, "SegmentSoftmax");

    Matrix da = RandMatrix(n, 1, &rng_);
    Matrix g = RandMatrix(n, 1, &rng_);
    Matrix want_g = g;
    kernels::SegmentSoftmaxBackwardAdd(alpha, da, seg, segments, &g);
    for (const auto& members : by_seg) {
      double dot = 0.0;
      for (uint32_t e : members) {
        dot += static_cast<double>(da.at(e, 0)) * alpha.at(e, 0);
      }
      for (uint32_t e : members) {
        want_g.at(e, 0) +=
            alpha.at(e, 0) * (da.at(e, 0) - static_cast<float>(dot));
      }
    }
    ExpectBitIdentical(want_g, g, "SegmentSoftmaxBackwardAdd");
  }
}

TEST_F(KernelsBitIdentityTest, ScaleRowsAndRowDot) {
  const size_t n = 3000, cols = 24;
  Matrix a = RandMatrix(n, cols, &rng_);
  Matrix b = RandMatrix(n, cols, &rng_);
  Matrix w = RandMatrix(n, 1, &rng_);

  Matrix scaled = a;
  kernels::ScaleRowsInPlace(&scaled, w);
  Matrix dots = RandMatrix(n, 1, &rng_);
  Matrix want_dots = dots;
  kernels::RowDotAdd(a, b, &dots);

  Matrix want_scaled = a;
  for (size_t i = 0; i < n; ++i) {
    double acc = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      want_scaled.at(i, j) *= w.at(i, 0);
      acc += static_cast<double>(a.at(i, j)) * b.at(i, j);
    }
    want_dots.at(i, 0) += static_cast<float>(acc);
  }
  ExpectBitIdentical(want_scaled, scaled, "ScaleRowsInPlace");
  ExpectBitIdentical(want_dots, dots, "RowDotAdd");
}

TEST_F(KernelsBitIdentityTest, L2NormalizeForwardBackward) {
  const size_t n = 2000, cols = 32;
  Matrix x = RandMatrix(n, cols, &rng_);
  // Plant exact zero rows: they must normalize to zero with zero gradient.
  for (size_t j = 0; j < cols; ++j) x.at(7, j) = x.at(100, j) = 0.0f;
  const float eps = 1e-12f;

  Matrix y(n, cols);
  std::vector<float> norms;
  kernels::L2NormalizeRows(x, eps, &y, &norms);
  Matrix dy = RandMatrix(n, cols, &rng_);
  Matrix dx = RandMatrix(n, cols, &rng_);
  const Matrix dx_before = dx;
  kernels::L2NormalizeRowsBackwardAdd(y, dy, norms, eps, &dx);

  Matrix want_y(n, cols);
  Matrix want_dx = dx_before;
  ASSERT_EQ(norms.size(), n);
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      s += static_cast<double>(x.at(i, j)) * x.at(i, j);
    }
    const float norm = static_cast<float>(std::sqrt(s));
    EXPECT_EQ(norms[i], std::max(norm, eps)) << "row " << i;
    const float inv = norm > eps ? 1.0f / norm : 0.0f;
    for (size_t j = 0; j < cols; ++j) want_y.at(i, j) = x.at(i, j) * inv;
    if (norm <= eps) continue;
    double dot = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      dot += static_cast<double>(dy.at(i, j)) * want_y.at(i, j);
    }
    const float ginv = 1.0f / std::max(norm, eps);
    for (size_t j = 0; j < cols; ++j) {
      want_dx.at(i, j) +=
          (dy.at(i, j) - static_cast<float>(dot) * want_y.at(i, j)) * ginv;
    }
  }
  ExpectBitIdentical(want_y, y, "L2NormalizeRows");
  ExpectBitIdentical(want_dx, dx, "L2NormalizeRowsBackwardAdd");
  for (size_t i : {size_t{7}, size_t{100}}) {
    for (size_t j = 0; j < cols; ++j) {
      EXPECT_EQ(y.at(i, j), 0.0f) << "zero row " << i;
      EXPECT_EQ(dx.at(i, j), dx_before.at(i, j)) << "zero row " << i;
    }
  }
}

TEST_F(KernelsBitIdentityTest, SoftmaxRowsForwardBackward) {
  const size_t n = 300, cols = 1 + rng_.UniformInt(70);
  const Matrix x = RandMatrix(n, cols, &rng_);
  Matrix y = x;
  kernels::SoftmaxRows(&y);
  Matrix dy = RandMatrix(n, cols, &rng_);
  Matrix dx = RandMatrix(n, cols, &rng_);
  Matrix want_dx = dx;
  kernels::SoftmaxRowsBackwardAdd(y, dy, &dx);

  Matrix want_y = x;
  for (size_t i = 0; i < n; ++i) {
    float* r = want_y.row(i);
    float mx = r[0];
    for (size_t j = 1; j < cols; ++j) mx = std::max(mx, r[j]);
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      r[j] = std::exp(r[j] - mx);
      sum += r[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t j = 0; j < cols; ++j) r[j] *= inv;
    double dot = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      dot += static_cast<double>(dy.at(i, j)) * r[j];
    }
    for (size_t j = 0; j < cols; ++j) {
      want_dx.at(i, j) += r[j] * (dy.at(i, j) - static_cast<float>(dot));
    }
  }
  ExpectBitIdentical(want_y, y, "SoftmaxRows");
  ExpectBitIdentical(want_dx, dx, "SoftmaxRowsBackwardAdd");
}

TEST_F(KernelsBitIdentityTest, CrossEntropyForwardBackward) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t n = 200 + rng_.UniformInt(400);
    const size_t m = 2 + rng_.UniformInt(300);
    Matrix logits = RandMatrix(n, m, &rng_);
    std::vector<uint32_t> targets = RandIndices(n, m, &rng_);

    Matrix sm = logits;
    const double loss = kernels::CrossEntropyForward(&sm, targets);
    Matrix want_sm = logits;
    double want_loss = 0.0;
    for (size_t i = 0; i < n; ++i) {
      float* r = want_sm.row(i);
      float mx = r[0];
      for (size_t j = 1; j < m; ++j) mx = std::max(mx, r[j]);
      double sum = 0.0;
      for (size_t j = 0; j < m; ++j) {
        sum += std::exp(static_cast<double>(r[j]) - mx);
      }
      const double lse = mx + std::log(sum);
      want_loss += lse - r[targets[i]];
      for (size_t j = 0; j < m; ++j) {
        r[j] = static_cast<float>(std::exp(static_cast<double>(r[j]) - lse));
      }
    }
    EXPECT_EQ(loss, want_loss);
    ExpectBitIdentical(want_sm, sm, "CrossEntropyForward softmax");

    const float gout = 0.125f;
    Matrix g = RandMatrix(n, m, &rng_);
    Matrix want_g = g;
    kernels::CrossEntropyBackwardAdd(sm, targets, gout, &g);
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < m; ++j) want_g.at(i, j) += gout * sm.at(i, j);
      want_g.at(i, targets[i]) -= gout;
    }
    ExpectBitIdentical(want_g, g, "CrossEntropyBackwardAdd");
  }
}

TEST_F(KernelsBitIdentityTest, PanelDotPathsMatchDotRowDouble) {
  // Both RowPanel scoring paths against DotRowDouble, memcmp-equal, over
  // the whole panel and over block-aligned slices. Row counts straddle the
  // 8-row blocks and the 16-row passes, dims have no alignment, and the
  // rows mix unit normals, 1e-30..1e30 magnitudes, subnormals, huge term
  // pairs that cancel (so a reordered sum shows), rows of +-1e30 (whose
  // scores overflow to +-inf in the final cast), zero rows and
  // duplicates. The output buffer carries NaN sentinels past the last
  // scored row, which a store from a padding row would overwrite.
  using PanelFn = void (*)(const float*, const kernels::RowPanel&, size_t,
                           size_t, float*);
  std::vector<std::pair<const char*, PanelFn>> paths = {
      {"scalar", &kernels::internal::DotPanelScalar}};
  if (kernels::internal::HasAvx2()) {
    paths.push_back({"avx2", &kernels::internal::DotPanelAvx2});
  }
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float denorm = std::numeric_limits<float>::denorm_min();
  auto wide = [&] {  // normal draw scaled by 10^[-30, 30]
    const double e = -30.0 + 60.0 * rng_.Uniform();
    return static_cast<float>(rng_.Normal() * std::pow(10.0, e));
  };
  for (size_t dim : {1, 3, 4, 5, 7, 8, 9, 31, 32, 33, 64}) {
    std::vector<std::vector<float>> queries(3, std::vector<float>(dim));
    for (size_t j = 0; j < dim; ++j) {
      queries[0][j] = static_cast<float>(rng_.Normal());
      queries[1][j] = wide();
      queries[2][j] = j % 3 == 0   ? 0.0f
                      : j % 3 == 1 ? denorm * static_cast<float>(1 + j)
                                   : static_cast<float>(rng_.Normal());
    }
    for (size_t n : {0, 1, 7, 8, 9, 15, 16, 17, 255, 256, 257, 1023, 1024,
                     1025, 2053}) {
      Matrix rows(n, dim);
      for (size_t i = 0; i < n; ++i) {
        float* r = rows.row(i);
        switch (i % 7) {
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
          case 4:  // +-1e30
            for (size_t j = 0; j < dim; ++j) r[j] = j % 2 ? -1e30f : 1e30f;
            break;
          case 5:  // zero row
            break;
          default:  // duplicate of an earlier row: an exact tie
            std::copy(rows.row(i / 2), rows.row(i / 2) + dim, r);
            break;
        }
      }
      const kernels::RowPanel panel(rows);
      ASSERT_EQ(panel.rows(), n);
      ASSERT_EQ(panel.dim(), dim);
      for (size_t qi = 0; qi < queries.size(); ++qi) {
        const float* q = queries[qi].data();
        std::vector<float> expected(n);
        for (size_t i = 0; i < n; ++i) {
          expected[i] = kernels::DotRowDouble(q, rows.row(i), dim);
        }
        // Slices: everything, from the second block on, and one block.
        std::vector<std::pair<size_t, size_t>> slices = {{0, n}};
        if (n > 8) slices.push_back({8, n});
        if (n > 24) slices.push_back({16, 24});
        for (const auto& [lo, hi] : slices) {
          for (const auto& [name, fn] : paths) {
            std::vector<float> got(hi - lo + 20, nan);
            fn(q, panel, lo, hi, got.data());
            for (size_t i = lo; i < hi; ++i) {
              ASSERT_EQ(
                  std::memcmp(&got[i - lo], &expected[i], sizeof(float)), 0)
                  << name << " dim=" << dim << " n=" << n << " query=" << qi
                  << " slice [" << lo << ", " << hi << ") row " << i << ": "
                  << got[i - lo] << " vs " << expected[i];
            }
            for (size_t s = hi - lo; s < got.size(); ++s) {
              ASSERT_TRUE(std::isnan(got[s]))
                  << name << " dim=" << dim << " n=" << n
                  << " wrote past the slice at " << s;
            }
          }
        }
      }
    }
  }
}

TEST_F(KernelsBitIdentityTest, TopKDotMatchesFullSort) {
  // TopKDot over a RowPanel against a full sort of test-local scalar
  // scores, which shares no code with the chunk loop or the heap. Row
  // counts straddle the 256-row chunks and the 8-row panel blocks (5003
  // leaves a 3-row short last block; dims 33 and 9 have no alignment); k
  // sweeps the degenerate cases (0, 1, = n, > n). The tied catalogs repeat
  // five base rows, so the k-th score is shared by many rows and the
  // equal-to-worst path decides by id; the zero query ties every row.
  auto full_sort = [](const float* q, const Matrix& rows, size_t k) {
    std::vector<std::pair<uint32_t, float>> all(rows.rows());
    for (size_t i = 0; i < rows.rows(); ++i) {
      all[i] = {static_cast<uint32_t>(i),
                ScalarDot(q, rows.row(i), rows.cols())};
    }
    std::sort(all.begin(), all.end(), [](const auto& a, const auto& b) {
      if (a.second != b.second) return a.second > b.second;
      return a.first < b.first;
    });
    all.resize(std::min(k, all.size()));
    return all;
  };
  auto same = [](const std::vector<std::pair<uint32_t, float>>& a,
                 const std::vector<std::pair<uint32_t, float>>& b) {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].first != b[i].first ||
          std::memcmp(&a[i].second, &b[i].second, sizeof(float)) != 0) {
        return false;
      }
    }
    return true;
  };
  struct Shape {
    size_t n, dim;
    bool tied;
  };
  for (const Shape& shape :
       {Shape{1, 7, false}, Shape{9, 1, false}, Shape{1000, 32, false},
        Shape{2053, 33, false}, Shape{5000, 24, false},
        Shape{5003, 32, false}, Shape{5003, 33, false}, Shape{3001, 9, true},
        Shape{260, 32, true}}) {
    const size_t n = shape.n, dim = shape.dim;
    Matrix rows = RandMatrix(n, dim, &rng_);
    if (shape.tied) {
      const Matrix base = RandMatrix(5, dim, &rng_);
      for (size_t i = 0; i < n; ++i) rows.CopyRowFrom(base, i % 5, i);
    }
    const kernels::RowPanel panel(rows);
    Matrix queries = RandMatrix(2, dim, &rng_);
    std::fill(queries.row(1), queries.row(1) + dim, 0.0f);
    for (size_t qi = 0; qi < 2; ++qi) {
      const float* q = queries.row(qi);
      for (size_t k : {size_t{0}, size_t{1}, size_t{10}, n, n + 5}) {
        EXPECT_TRUE(same(kernels::TopKDot(q, panel, k), full_sort(q, rows, k)))
            << "n=" << n << " dim=" << dim << " query=" << qi << " k=" << k;
      }
    }
  }
}

/// The k-means assignment metric as a plain loop, independent of
/// core/kernels.h: widened differences squared and summed in ascending
/// column order.
double ScalarSquaredL2(const float* a, const float* b, size_t dim) {
  double d = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double diff = static_cast<double>(a[j]) - static_cast<double>(b[j]);
    d += diff * diff;
  }
  return d;
}

TEST_F(KernelsBitIdentityTest, SquaredL2LanesMatchScalarReference) {
  // Both lane paths against the test-local loop, memcmp-equal on every
  // panel lane (padding lanes are zero centroids), and ArgMinFirst over
  // their distances against the first minimum of the reference. Centroid
  // counts straddle the 16-lane groups and dims have no alignment; the
  // centroids mix unit normals, 1e-30..1e30 magnitudes, subnormals, zero
  // rows and duplicates, and one point equals centroid 0, which the last
  // centroid duplicates, so the tie at distance 0 must keep id 0.
  using LanesFn =
      void (*)(const float*, const double*, size_t, size_t, double*);
  std::vector<std::pair<const char*, LanesFn>> paths = {
      {"scalar", &kernels::internal::SquaredL2LanesScalar}};
  if (kernels::internal::HasAvx2()) {
    paths.push_back({"avx2", &kernels::internal::SquaredL2LanesAvx2});
  }
  const float denorm = std::numeric_limits<float>::denorm_min();
  auto wide = [&] {  // normal draw scaled by 10^[-30, 30]
    const double e = -30.0 + 60.0 * rng_.Uniform();
    return static_cast<float>(rng_.Normal() * std::pow(10.0, e));
  };
  auto fill = [&](float* r, size_t dim, size_t kind) {
    for (size_t j = 0; j < dim; ++j) {
      switch (kind % 4) {
        case 0: r[j] = static_cast<float>(rng_.Normal()); break;
        case 1: r[j] = wide(); break;
        case 2:
          r[j] = (j % 2 ? -1.0f : 1.0f) * denorm *
                 static_cast<float>(1 + rng_.UniformInt(uint64_t{1000}));
          break;
        default: r[j] = 0.0f; break;
      }
    }
  };
  for (size_t dim : {1, 3, 4, 5, 7, 31, 32, 33, 64}) {
    for (size_t ncent : {1, 2, 3, 15, 16, 17, 141}) {
      Matrix cents(ncent, dim);
      for (size_t c = 0; c < ncent; ++c) {
        if (c % 5 == 4) {  // duplicate of an earlier centroid
          cents.CopyRowFrom(cents, c / 2, c);
        } else {
          fill(cents.row(c), dim, c);
        }
      }
      if (ncent > 1) cents.CopyRowFrom(cents, 0, ncent - 1);
      std::vector<double> panel;
      const size_t stride = kernels::PackCentroidPanel(cents, &panel);
      ASSERT_EQ(stride % kernels::kCentroidLanes, 0u);
      ASSERT_GE(stride, ncent);
      ASSERT_LT(stride, ncent + kernels::kCentroidLanes);
      // Points: one of each kind, and centroid 0 itself.
      Matrix points(5, dim);
      for (size_t p = 0; p < 4; ++p) fill(points.row(p), dim, p);
      points.CopyRowFrom(cents, 0, 4);
      const std::vector<float> zeros(dim, 0.0f);
      for (size_t p = 0; p < points.rows(); ++p) {
        const float* point = points.row(p);
        std::vector<double> expected(stride);
        for (size_t c = 0; c < stride; ++c) {
          expected[c] = ScalarSquaredL2(
              point, c < ncent ? cents.row(c) : zeros.data(), dim);
        }
        uint32_t expected_best = 0;
        for (size_t c = 1; c < ncent; ++c) {
          if (expected[c] < expected[expected_best]) {
            expected_best = static_cast<uint32_t>(c);
          }
        }
        if (p == 4) {
          ASSERT_EQ(expected_best, 0u);
        }
        for (const auto& [name, fn] : paths) {
          std::vector<double> got(stride,
                                  std::numeric_limits<double>::quiet_NaN());
          fn(point, panel.data(), dim, stride, got.data());
          for (size_t c = 0; c < stride; ++c) {
            ASSERT_EQ(std::memcmp(&got[c], &expected[c], sizeof(double)), 0)
                << name << " dim=" << dim << " centroids=" << ncent
                << " point " << p << " lane " << c << ": " << got[c]
                << " vs " << expected[c];
          }
          EXPECT_EQ(kernels::ArgMinFirst(got.data(), ncent), expected_best)
              << name << " dim=" << dim << " centroids=" << ncent
              << " point " << p;
        }
      }
    }
  }
}

// ----------------------------------------------------------- sq8 kernels

/// Every row of src encoded with sq8::EncodeRow into row-major codes and
/// one scale per row.
void EncodeAll(const Matrix& src, int8_t* codes, float* scales) {
  for (size_t r = 0; r < src.rows(); ++r) {
    kernels::sq8::EncodeRow(src.row(r), src.cols(), codes + r * src.cols(),
                            &scales[r]);
  }
}

TEST_F(KernelsBitIdentityTest, Sq8EncodeRowBoundsError) {
  for (int trial = 0; trial < 4; ++trial) {
    const size_t rows = 30 + rng_.UniformInt(600);
    const size_t dim = 1 + rng_.UniformInt(300);  // crosses kDimBlock at 257+
    Matrix src = RandMatrix(rows, dim, &rng_);
    std::fill(src.row(0), src.row(0) + dim, 0.0f);  // zero-row edge
    std::vector<int8_t> codes(rows * dim);
    std::vector<float> scales(rows);
    EncodeAll(src, codes.data(), scales.data());
    EXPECT_EQ(scales[0], 0.0f);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t j = 0; j < dim; ++j) {
        const float v = src.at(r, j);
        const float dequant =
            scales[r] * static_cast<float>(codes[r * dim + j]);
        // s/2 plus a hair of float rounding from the dequant product.
        ASSERT_LE(std::fabs(v - dequant), scales[r] * 0.5f * 1.001f + 1e-6f)
            << "per-coordinate bound violated at (" << r << "," << j << ")";
        ASSERT_GE(codes[r * dim + j], -127);  // -128 slot unused
      }
    }
  }
}

TEST_F(KernelsBitIdentityTest, Sq8ScanDotsOverRangesMatchesModelAndBand) {
  const size_t rows = 700, dim = 280;  // > kDimBlock: exercises blocking
  Matrix src = RandMatrix(rows, dim, &rng_);
  std::vector<int8_t> codes(rows * dim);
  std::vector<float> scales(rows);
  EncodeAll(src, codes.data(), scales.data());
  Matrix q = RandMatrix(1, dim, &rng_);
  const auto qc = kernels::sq8::QuantizeQuery(q.row(0), dim);
  // Ranges with gaps, an empty range, and out-of-order starts.
  const std::vector<std::pair<uint32_t, uint32_t>> ranges = {
      {500, 700}, {40, 40}, {0, 260}, {300, 450}};
  const size_t total = 200 + 0 + 260 + 150;
  std::vector<float> out0(total);
  kernels::sq8::ScanDots(qc, codes.data(), scales.data(), dim, ranges,
                         out0.data());
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

/// The SQ8 scan contract as a plain loop, independent of core/kernels.h:
/// int32 sums over 256-coordinate blocks, each widened to double and added
/// to a total that starts at 0.0, then (qscale * vscale) * total rounded
/// to float.
float ScalarSq8Dot(const kernels::sq8::QueryCodes& qc, const int8_t* row,
                   float vscale, size_t dim) {
  double total = 0.0;
  for (size_t j0 = 0; j0 < dim; j0 += 256) {
    int32_t acc = 0;
    for (size_t j = j0; j < std::min(dim, j0 + 256); ++j) {
      acc += static_cast<int32_t>(qc.codes[j]) * row[j];
    }
    total += static_cast<double>(acc);
  }
  return static_cast<float>(static_cast<double>(qc.scale) *
                            static_cast<double>(vscale) * total);
}

TEST_F(KernelsBitIdentityTest, Sq8ScanPathsMatchScalarIntegerModel) {
  // Both scan paths, over the whole slot range and over slices of it, and
  // the dispatching ScanDots, against the test-local model,
  // memcmp-equal on every slot. Dims straddle the 16-column steps and the
  // 256-column blocks. Range lengths straddle the 8-row groups; ranges
  // start at odd rows and come out of order, so groups cross range
  // boundaries and the last group of a slice is short. Rows of +-127
  // codes against +-32767 query codes reach the int32 block bound; row
  // scales include zero, subnormals and 1e+-30; one query is zero.
  namespace sq8 = kernels::sq8;
  using ScanFn = void (*)(const sq8::QueryCodes&, const int8_t*,
                          const float*, size_t, const sq8::RowRanges&,
                          size_t, size_t, float*);
  std::vector<std::pair<const char*, ScanFn>> paths = {
      {"scalar", &sq8::internal::ScanSlotsScalar}};
  if (kernels::internal::HasAvx2()) {
    paths.push_back({"avx2", &sq8::internal::ScanSlotsAvx2});
  }
  const float denorm = std::numeric_limits<float>::denorm_min();
  const size_t rows = 800;
  sq8::RowRanges ranges;
  for (size_t len : {0, 1, 7, 8, 9, 15, 16, 17, 141}) {
    for (int copy = 0; copy < 3; ++copy) {
      const uint32_t start =
          static_cast<uint32_t>(1 + 2 * rng_.UniformInt((rows - len) / 2));
      ranges.emplace_back(start, start + static_cast<uint32_t>(len));
    }
  }
  for (size_t i = ranges.size() - 1; i > 0; --i) {
    std::swap(ranges[i], ranges[rng_.UniformInt(i + 1)]);
  }
  std::vector<uint32_t> slot_row;
  for (const auto& [lo, hi] : ranges) {
    ASSERT_LE(hi, rows);
    for (uint32_t r = lo; r < hi; ++r) slot_row.push_back(r);
  }
  const size_t total = slot_row.size();
  const std::vector<std::pair<size_t, size_t>> slices = {
      {0, total}, {1, total}, {5, 13}, {141, 400}, {total - 3, total}};

  for (size_t dim : {1, 15, 16, 17, 31, 32, 33, 255, 256, 257, 280, 513}) {
    std::vector<int8_t> codes(rows * dim);
    std::vector<float> scales(rows);
    for (size_t r = 0; r < rows; ++r) {
      int8_t* row = codes.data() + r * dim;
      for (size_t j = 0; j < dim; ++j) {
        switch (r % 4) {
          case 0: row[j] = 127; break;
          case 1: row[j] = -127; break;
          case 2: row[j] = j % 3 ? 127 : -127; break;
          default:
            row[j] = static_cast<int8_t>(
                static_cast<int>(rng_.UniformInt(uint64_t{255})) - 127);
        }
      }
      switch (r % 5) {
        case 0: scales[r] = 0.0f; break;
        case 1:
          scales[r] = denorm *
                      static_cast<float>(1 + rng_.UniformInt(uint64_t{1000}));
          break;
        case 2: scales[r] = 1e30f; break;
        case 3: scales[r] = 1e-30f; break;
        default: scales[r] = 0.05f * static_cast<float>(rng_.Uniform());
      }
    }
    // Queries: all +32767, alternating +-32767, random codes, and zero.
    std::vector<sq8::QueryCodes> queries(4);
    for (size_t j = 0; j < dim; ++j) {
      queries[0].codes.push_back(32767);
      queries[1].codes.push_back(j % 2 ? -32767 : 32767);
      queries[2].codes.push_back(static_cast<int16_t>(
          static_cast<int>(rng_.UniformInt(uint64_t{65535})) - 32767));
      queries[3].codes.push_back(0);
    }
    queries[0].scale = 1e-3f;
    queries[1].scale = 3e-5f;
    queries[2].scale = static_cast<float>(rng_.Uniform());
    for (size_t qi = 0; qi < queries.size(); ++qi) {
      const sq8::QueryCodes& qc = queries[qi];
      std::vector<float> expected(total);
      for (size_t s = 0; s < total; ++s) {
        const uint32_t r = slot_row[s];
        expected[s] = ScalarSq8Dot(qc, codes.data() + r * dim, scales[r], dim);
      }
      for (const auto& [name, fn] : paths) {
        for (const auto& [lo, hi] : slices) {
          // Slots outside [lo, hi) keep their NaN sentinel.
          std::vector<float> got(total,
                                 std::numeric_limits<float>::quiet_NaN());
          const std::vector<float> untouched = got;
          fn(qc, codes.data(), scales.data(), dim, ranges, lo, hi,
             got.data());
          for (size_t s = 0; s < total; ++s) {
            const float& want = s >= lo && s < hi ? expected[s] : untouched[s];
            ASSERT_EQ(std::memcmp(&got[s], &want, sizeof(float)), 0)
                << name << " dim=" << dim << " query " << qi << " slice ["
                << lo << ", " << hi << ") slot " << s << " (row "
                << slot_row[s] << "): " << got[s] << " vs " << want;
          }
        }
      }
      std::vector<float> got(total);
      sq8::ScanDots(qc, codes.data(), scales.data(), dim, ranges, got.data());
      ASSERT_EQ(
          std::memcmp(got.data(), expected.data(), total * sizeof(float)), 0)
          << "ScanDots dim=" << dim << " query " << qi;
    }
  }
}

TEST_F(KernelsBitIdentityTest, Sq8ZeroQueryAndZeroRowsScanToExactZero) {
  const size_t rows = 8, dim = 16;
  Matrix src(rows, dim);  // all-zero catalog
  std::vector<int8_t> codes(rows * dim);
  std::vector<float> scales(rows);
  EncodeAll(src, codes.data(), scales.data());
  std::vector<float> zq(dim, 0.0f);
  const auto qc = kernels::sq8::QuantizeQuery(zq.data(), dim);
  EXPECT_EQ(qc.scale, 0.0f);
  EXPECT_EQ(qc.abs_code_sum, 0u);
  EXPECT_EQ(qc.ErrorBandPerUnitScale(dim), 0.0);
  std::vector<float> out(rows, -1.0f);
  kernels::sq8::ScanDots(qc, codes.data(), scales.data(), dim,
                         {{0, static_cast<uint32_t>(rows)}}, out.data());
  for (float v : out) EXPECT_EQ(v, 0.0f);
}

}  // namespace
}  // namespace garcia::core
