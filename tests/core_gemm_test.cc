// Packed GEMM vs a naive triple-loop reference.
//
// The packed, cache-blocked kernel (core/kernels.cc) promises bit-identity
// with the naive reference for every transpose-flag combination,
// alpha/beta and blocking — not merely closeness — because every blocking
// accumulates each output element's fl(alpha*a)*b terms in ascending k
// order (see the bit-identity argument in kernels.cc). Every comparison
// here is on raw bit patterns for non-NaN values; NaNs compare as a class
// (IEEE-754 leaves NaN sign/payload selection to the implementation — see
// ExpectBitEqual), and the kernel must propagate them (0 * Inf = NaN)
// instead of skipping zero operands.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "core/kernels.h"
#include "core/matrix.h"
#include "core/rng.h"

namespace garcia::core {
namespace {

// The reference: op-dim resolution, beta pre-scaling and ascending-k
// accumulation of fl(alpha * a_op) * b_op, element by element. This is the
// contract the packed kernel reproduces bit for bit.
void NaiveGemm(bool trans_a, bool trans_b, float alpha, const Matrix& a,
               const Matrix& b, float beta, Matrix* c) {
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t n = trans_b ? b.rows() : b.cols();
  if (beta == 0.0f) {
    c->Fill(0.0f);
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }
  if (alpha == 0.0f) return;
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      for (size_t l = 0; l < k; ++l) {
        const float av = alpha * (trans_a ? a.at(l, i) : a.at(i, l));
        const float bv = trans_b ? b.at(j, l) : b.at(l, j);
        c->at(i, j) += av * bv;
      }
    }
  }
}

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

// Bit-pattern equality for every non-NaN value — including the signs of
// zeros and infinities. NaNs compare as a class: IEEE-754 does not pin
// which NaN an operation returns (e.g. `x + y` with two NaN operands keeps
// whichever one the compiler placed in the destination register, and
// 0 * Inf yields the platform's indefinite NaN, whose sign bit is set on
// x86), so NaN sign/payload may legitimately differ between the kernel's
// and the reference's compiled code even though both execute the same
// ascending-k accumulation. Where a NaN appears — and every finite bit —
// must still match exactly.
void ExpectBitEqual(const Matrix& want, const Matrix& got, const char* what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const float w = want.data()[i];
    const float g = got.data()[i];
    if (std::isnan(w) && std::isnan(g)) continue;
    ASSERT_EQ(Bits(w), Bits(g)) << what << " diverges at flat index " << i
                                << ": " << w << " vs " << g;
  }
}

Matrix RandMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t i = 0; i < m.size(); ++i) {
    m.data()[i] = static_cast<float>(rng->Normal());
  }
  return m;
}

class GemmPackedTest : public ::testing::Test {
 protected:
  Rng rng_{20260805};

  // Runs one (shape, flags, alpha, beta) instance through Gemm and checks
  // it against the naive reference.
  void CheckAgainstNaive(size_t m, size_t k, size_t n, bool ta, bool tb,
                         float alpha, float beta, const char* what) {
    const Matrix a = RandMatrix(ta ? k : m, ta ? m : k, &rng_);
    const Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
    const Matrix c_init = RandMatrix(m, n, &rng_);
    Matrix want = c_init;
    NaiveGemm(ta, tb, alpha, a, b, beta, &want);
    Matrix got = c_init;
    kernels::Gemm(ta, tb, alpha, a, b, beta, &got);
    SCOPED_TRACE(::testing::Message()
                 << what << " m=" << m << " k=" << k << " n=" << n
                 << " ta=" << ta << " tb=" << tb << " alpha=" << alpha
                 << " beta=" << beta);
    ExpectBitEqual(want, got, what);
  }
};

TEST_F(GemmPackedTest, RandomizedShapeTransposeAlphaBetaSweep) {
  const float alphas[] = {1.0f, -1.3f, 0.5f, 0.0f};
  const float betas[] = {0.0f, 1.0f, 0.7f};
  for (int trial = 0; trial < 10; ++trial) {
    const size_t m = 1 + rng_.UniformInt(120);
    const size_t k = 1 + rng_.UniformInt(96);
    const size_t n = 1 + rng_.UniformInt(120);
    const float alpha = alphas[trial % 4];
    const float beta = betas[trial % 3];
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        CheckAgainstNaive(m, k, n, ta, tb, alpha, beta, "sweep");
      }
    }
  }
}

TEST_F(GemmPackedTest, PanelBoundaryShapes) {
  // Shapes straddling the default MC/KC/NC panel edges and indivisible by
  // the MR x NR micro-tile, so edge padding and multi-panel k loops all
  // engage.
  const size_t shapes[][3] = {
      {64, 256, 256},  // exactly one packed block per dimension
      {65, 257, 259},  // one past every panel edge
      {150, 300, 301},  // multiple panels, ragged micro-tiles
      {3, 513, 5},      // m, n below the micro-tile size, k > 2 panels
  };
  for (const auto& s : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        CheckAgainstNaive(s[0], s[1], s[2], ta, tb, 1.1f, 0.4f, "panel-edge");
      }
    }
  }
}

TEST_F(GemmPackedTest, BackwardDwShape) {
  // dW = X^T dY: m = n = hidden dim (small), k = node count (large), so a
  // single output block walks many k panels.
  CheckAgainstNaive(32, 4096, 32, /*ta=*/true, /*tb=*/false, 1.0f, 1.0f,
                    "dW");
  CheckAgainstNaive(16, 8192, 48, /*ta=*/true, /*tb=*/true, -0.7f, 0.0f,
                    "dW-tt");
}

TEST_F(GemmPackedTest, NonFinitePropagation) {
  // Regression for the old `av == 0.0f` inner-loop skip: a zero row of A
  // against Inf/NaN rows of B must produce NaN (0 * Inf = NaN), not
  // silently drop the term.
  const size_t m = 24, k = 40, n = 24;
  Matrix a = RandMatrix(m, k, &rng_);
  Matrix b = RandMatrix(k, n, &rng_);
  for (size_t l = 0; l < k; ++l) a.at(3, l) = 0.0f;  // zero row of A
  for (size_t j = 0; j < n; ++j) {
    b.at(7, j) = std::numeric_limits<float>::infinity();
    b.at(11, j) = std::numeric_limits<float>::quiet_NaN();
  }
  Matrix want(m, n);
  NaiveGemm(false, false, 1.0f, a, b, 0.0f, &want);
  // The zero row meets Inf and NaN B rows, so its outputs must be NaN.
  for (size_t j = 0; j < n; ++j) ASSERT_TRUE(std::isnan(want.at(3, j)));
  Matrix got(m, n);
  kernels::Gemm(false, false, 1.0f, a, b, 0.0f, &got);
  ExpectBitEqual(want, got, "non-finite");
  // Transposed operands run through the strided packing paths; non-finites
  // must survive those too.
  Matrix at(k, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t l = 0; l < k; ++l) at.at(l, i) = a.at(i, l);
  }
  Matrix got_t(m, n);
  kernels::Gemm(true, false, 1.0f, at, b, 0.0f, &got_t);
  ExpectBitEqual(want, got_t, "non-finite-ta");
}

TEST_F(GemmPackedTest, CustomBlockingIsBitIdentical) {
  // Pathologically small and unaligned panels exercise every padding path;
  // results must not move.
  const kernels::internal::GemmBlocking tiny = {
      /*mc=*/7,
      /*kc=*/3,
      /*nc=*/5,
  };
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const size_t m = 33, k = 29, n = 31;
      const Matrix a = RandMatrix(ta ? k : m, ta ? m : k, &rng_);
      const Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
      const Matrix c_init = RandMatrix(m, n, &rng_);
      Matrix want = c_init;
      NaiveGemm(ta, tb, 1.6f, a, b, 0.3f, &want);
      // nc = 5 leaves column panels of one valid column, so kDispatch
      // runs the single-column path where kScalar runs the 8-wide kernel.
      for (auto kernel_set : {kernels::internal::GemmKernels::kDispatch,
                              kernels::internal::GemmKernels::kScalar}) {
        Matrix got = c_init;
        kernels::internal::GemmBlocked(tiny, ta, tb, 1.6f, a, b, 0.3f, &got,
                                       kernel_set);
        ExpectBitEqual(want, got, "custom-blocking");
      }
    }
  }
}

TEST_F(GemmPackedTest, LoopNestCrossesEveryBlockEdge) {
  // The loop nest packs each op(B) panel once per (column panel, k panel)
  // and reuses it for every row block. With mc = 10, kc = 16 and nc = 20,
  // the 47 x 37 x 53 shape has five row blocks, three k panels and three
  // column panels at once, each with a partial last one, and every block
  // and panel ends in a partial MR x NR tile. Every output element must
  // still take its k panels in ascending order, so the result is the naive
  // loop's bits.
  const kernels::internal::GemmBlocking small = {
      /*mc=*/10,
      /*kc=*/16,
      /*nc=*/20,
  };
  const size_t m = 47, k = 37, n = 53;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const Matrix a = RandMatrix(ta ? k : m, ta ? m : k, &rng_);
      const Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
      const Matrix c_init = RandMatrix(m, n, &rng_);
      Matrix want = c_init;
      NaiveGemm(ta, tb, -0.9f, a, b, 0.6f, &want);
      for (auto kernel_set : {kernels::internal::GemmKernels::kDispatch,
                              kernels::internal::GemmKernels::kScalar}) {
        Matrix got = c_init;
        kernels::internal::GemmBlocked(small, ta, tb, -0.9f, a, b, 0.6f, &got,
                                       kernel_set);
        SCOPED_TRACE(::testing::Message() << "ta=" << ta << " tb=" << tb);
        ExpectBitEqual(want, got, "loop-nest");
      }
    }
  }
}

// The micro-kernels on their own, below Gemm's tiling: every partial tile
// shape, k depths around the default KC, and the same packed inputs through
// the scalar kernel, the AVX2 kernel and (for one column) the single-column
// path. Each result is memcmp'd against NaiveGemm on the same operands. C
// is allocated so its last valid element ends the allocation, so an
// over-read of a partial tile is an ASan report.
class GemmMicroKernelTest : public ::testing::Test {
 protected:
  static constexpr size_t kMr = kernels::internal::kGemmMr;
  static constexpr size_t kNr = kernels::internal::kGemmNr;

  Rng rng_{20261019};

  // Packs op(A) (m x kc, scaled by alpha) into ceil(m / kMr) panels and
  // op(B) (kc x n) into one panel, in Gemm's packed layouts.
  static std::vector<float> PackA(bool ta, const Matrix& a, float alpha,
                                  size_t m, size_t kc) {
    std::vector<float> packed(((m + kMr - 1) / kMr) * kc * kMr, 0.0f);
    for (size_t i = 0; i < m; ++i) {
      for (size_t l = 0; l < kc; ++l) {
        packed[(i / kMr) * kc * kMr + l * kMr + i % kMr] =
            alpha * (ta ? a.at(l, i) : a.at(i, l));
      }
    }
    return packed;
  }
  static std::vector<float> PackB(bool tb, const Matrix& b, size_t kc,
                                  size_t n) {
    std::vector<float> packed(kc * kNr, 0.0f);
    for (size_t l = 0; l < kc; ++l) {
      for (size_t j = 0; j < n; ++j) {
        packed[l * kNr + j] = tb ? b.at(j, l) : b.at(l, j);
      }
    }
    return packed;
  }

  // One (m, n, kc, flags, alpha, beta) case through every applicable
  // kernel, C at row stride n + 3.
  void CheckKernels(size_t m, size_t n, size_t kc, bool ta, bool tb,
                    float alpha, float beta) {
    const Matrix a = RandMatrix(ta ? kc : m, ta ? m : kc, &rng_);
    const Matrix b = RandMatrix(tb ? n : kc, tb ? kc : n, &rng_);
    const Matrix c_init = RandMatrix(m, n, &rng_);
    Matrix want = c_init;
    NaiveGemm(ta, tb, alpha, a, b, beta, &want);
    // Gemm pre-scales C by beta before any kernel runs.
    Matrix scaled = c_init;
    if (beta == 0.0f) {
      scaled.Fill(0.0f);
    } else if (beta != 1.0f) {
      scaled.Scale(beta);
    }
    const std::vector<float> ap = PackA(ta, a, alpha, m, kc);
    const std::vector<float> bp = PackB(tb, b, kc, n);
    const size_t ldc = n + 3;
    auto run = [&](const char* what, auto kernel) {
      std::vector<float> c((m - 1) * ldc + n);
      for (size_t i = 0; i < m; ++i) {
        std::memcpy(c.data() + i * ldc, scaled.row(i), n * sizeof(float));
      }
      kernel(c.data());
      Matrix got(m, n);
      for (size_t i = 0; i < m; ++i) {
        std::memcpy(got.row(i), c.data() + i * ldc, n * sizeof(float));
      }
      SCOPED_TRACE(::testing::Message()
                   << what << " m=" << m << " n=" << n << " kc=" << kc
                   << " ta=" << ta << " tb=" << tb << " alpha=" << alpha
                   << " beta=" << beta);
      ASSERT_EQ(std::memcmp(want.data(), got.data(),
                            want.size() * sizeof(float)),
                0);
    };
    if (m <= kMr) {
      run("scalar", [&](float* c) {
        kernels::internal::GemmMicroKernel(ap.data(), bp.data(), kc, c, ldc,
                                           m, n);
      });
      if (kernels::internal::HasAvx2()) {
        run("avx2", [&](float* c) {
          kernels::internal::GemmMicroKernelAvx2(ap.data(), bp.data(), kc, c,
                                                 ldc, m, n);
        });
      }
    }
    if (n == 1) {
      run("single-column", [&](float* c) {
        kernels::internal::GemmSingleColumn(ap.data(), m, bp.data(), kc, c,
                                            ldc);
      });
    }
  }
};

TEST_F(GemmMicroKernelTest, EveryPartialTileMatchesNaive) {
  for (size_t kc : {1, 2, 255, 256, 257}) {
    for (size_t m = 1; m <= kMr; ++m) {
      for (size_t n = 1; n <= kNr; ++n) {
        for (float alpha : {1.0f, -0.7f}) {
          for (float beta : {0.0f, 0.4f, 1.0f}) {
            for (bool ta : {false, true}) {
              for (bool tb : {false, true}) {
                CheckKernels(m, n, kc, ta, tb, alpha, beta);
              }
            }
          }
        }
      }
    }
  }
}

TEST_F(GemmMicroKernelTest, SingleColumnOverManyPanels) {
  // Past one group of panels in flight, with every short last panel.
  for (size_t m : {31, 32, 33, 35, 64, 69, 101}) {
    for (size_t kc : {1, 69, 257}) {
      CheckKernels(m, 1, kc, m % 2 == 0, m % 3 == 0, -0.7f, 0.4f);
    }
  }
}

TEST_F(GemmMicroKernelTest, SingleColumnPropagatesNonFinite) {
  // 0 * Inf = NaN and Inf + finite = Inf must survive the lane-per-row
  // path exactly as in the naive loop.
  const size_t m = 37, kc = 9;
  Matrix a = RandMatrix(m, kc, &rng_);
  Matrix b = RandMatrix(kc, 1, &rng_);
  for (size_t l = 0; l < kc; ++l) a.at(5, l) = 0.0f;  // zero row meets Inf
  b.at(2, 0) = std::numeric_limits<float>::infinity();
  a.at(20, 2) = 1.0f;  // +Inf from B ...
  a.at(20, 4) = std::numeric_limits<float>::infinity();
  b.at(4, 0) = 2.0f;  // ... and +Inf from A: the sum stays +Inf
  Matrix want(m, 1);
  NaiveGemm(false, false, 1.0f, a, b, 0.0f, &want);
  ASSERT_TRUE(std::isnan(want.at(5, 0)));
  ASSERT_TRUE(std::isinf(want.at(20, 0)));
  const std::vector<float> ap = PackA(false, a, 1.0f, m, kc);
  const std::vector<float> bp = PackB(false, b, kc, 1);
  Matrix got(m, 1);
  kernels::internal::GemmSingleColumn(ap.data(), m, bp.data(), kc,
                                      got.data(), 1);
  ExpectBitEqual(want, got, "single-column non-finite");
  Matrix via_gemm(m, 1);
  kernels::Gemm(false, false, 1.0f, a, b, 0.0f, &via_gemm);
  ExpectBitEqual(want, via_gemm, "gemm non-finite n=1");
}

TEST_F(GemmPackedTest, AttentionLogitShapes) {
  // GARCIA's Eq. 2 attention logit at E = 2053 edges over a 69-wide
  // [z_dst || z_src || e] input: the forward E x 69 . 69 x 1, the weight
  // gradient 69 x E . E x 1 (att_in transposed), and the input gradient
  // E x 1 . 1 x 69. The two n = 1 shapes run the single-column path.
  const size_t e = 2053, d = 69;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      CheckAgainstNaive(e, d, 1, ta, tb, 1.0f, 0.0f, "att-forward");
      CheckAgainstNaive(d, e, 1, ta, tb, 1.0f, 1.0f, "att-dw");
      CheckAgainstNaive(e, 1, d, ta, tb, -0.7f, 1.0f, "att-dx");
    }
  }
}

}  // namespace
}  // namespace garcia::core
