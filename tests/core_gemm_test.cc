// Packed GEMM vs a naive triple-loop reference.
//
// The packed, cache-blocked kernel (core/kernels.cc) promises bit-identity
// with the naive reference for every transpose-flag combination, thread
// count, alpha/beta and blocking — not merely closeness — because every
// tiling accumulates each output element's fl(alpha*a)*b terms in ascending
// k order (see the bit-identity argument in kernels.cc). Every comparison
// here is on raw bit patterns for non-NaN values; NaNs compare as a class
// (IEEE-754 leaves NaN sign/payload selection to the implementation — see
// ExpectBitEqual), and the kernel must propagate them (0 * Inf = NaN)
// instead of skipping zero operands.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

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
  ExecutionContext par2_{2};
  ExecutionContext par4_{4};
  Rng rng_{20260805};

  // Runs one (shape, flags, alpha, beta) instance on every context and
  // checks each against the naive reference.
  void CheckAgainstNaive(size_t m, size_t k, size_t n, bool ta, bool tb,
                         float alpha, float beta, const char* what) {
    const Matrix a = RandMatrix(ta ? k : m, ta ? m : k, &rng_);
    const Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
    const Matrix c_init = RandMatrix(m, n, &rng_);
    Matrix want = c_init;
    NaiveGemm(ta, tb, alpha, a, b, beta, &want);
    const ExecutionContext serial1(1);
    const ExecutionContext* ctxs[] = {&SerialExecution(), &serial1, &par2_,
                                      &par4_};
    for (const ExecutionContext* ctx : ctxs) {
      Matrix got = c_init;
      kernels::Gemm(*ctx, ta, tb, alpha, a, b, beta, &got);
      SCOPED_TRACE(::testing::Message()
                   << what << " m=" << m << " k=" << k << " n=" << n
                   << " ta=" << ta << " tb=" << tb << " alpha=" << alpha
                   << " beta=" << beta
                   << " threads=" << ctx->num_threads());
      ExpectBitEqual(want, got, what);
    }
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

TEST_F(GemmPackedTest, BackwardDwShapeParallelizes) {
  // dW = X^T dY: m = n = hidden dim (small), k = node count (large). Before
  // 2-D sharding this collapsed onto row-only shards; now it must split and
  // still match the reference exactly.
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
  Matrix got_serial(m, n);
  kernels::Gemm(SerialExecution(), false, false, 1.0f, a, b, 0.0f,
                &got_serial);
  ExpectBitEqual(want, got_serial, "non-finite");
  // Across the kernel's own backends the SAME code runs in the same order,
  // so even the NaN bits must agree exactly.
  Matrix got_par(m, n);
  kernels::Gemm(par4_, false, false, 1.0f, a, b, 0.0f, &got_par);
  for (size_t i = 0; i < got_serial.size(); ++i) {
    ASSERT_EQ(Bits(got_serial.data()[i]), Bits(got_par.data()[i]))
        << "serial vs parallel kernel diverge at flat index " << i;
  }
  ExpectBitEqual(want, got_par, "non-finite-par");
  // Transposed operands run through the strided packing paths; non-finites
  // must survive those too.
  Matrix at(k, m);
  for (size_t i = 0; i < m; ++i) {
    for (size_t l = 0; l < k; ++l) at.at(l, i) = a.at(i, l);
  }
  Matrix got_t(m, n);
  kernels::Gemm(par4_, true, false, 1.0f, at, b, 0.0f, &got_t);
  ExpectBitEqual(want, got_t, "non-finite-ta");
}

TEST_F(GemmPackedTest, CustomBlockingIsBitIdentical) {
  // Pathologically small and unaligned panels exercise every padding path;
  // results must not move. Floors of 1 let the parallel grid refine all the
  // way down to single rows/columns.
  const kernels::internal::GemmBlocking tiny = {
      /*mc=*/7,
      /*kc=*/3,
      /*nc=*/5,
      /*min_rows_per_shard=*/1,
      /*min_cols_per_shard=*/1,
      /*shared_b_max_floats=*/size_t{1} << 24,
  };
  const ExecutionContext par3(3);
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const size_t m = 33, k = 29, n = 31;
      const Matrix a = RandMatrix(ta ? k : m, ta ? m : k, &rng_);
      const Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
      const Matrix c_init = RandMatrix(m, n, &rng_);
      Matrix want = c_init;
      NaiveGemm(ta, tb, 1.6f, a, b, 0.3f, &want);
      for (const ExecutionContext* ctx : {&SerialExecution(), &par3}) {
        Matrix got = c_init;
        kernels::internal::GemmBlocked(*ctx, tiny, ta, tb, 1.6f, a, b, 0.3f,
                                       &got);
        ExpectBitEqual(want, got, "custom-blocking");
      }
    }
  }
}

TEST_F(GemmPackedTest, SharedBPanelCapIsBitIdentical) {
  // The shared packed-B path pre-packs all B panels once when the parallel
  // grid has more than one row block and packed B fits under
  // shared_b_max_floats; over the cap each shard packs its own
  // panels. Both regimes must agree with the naive reference bit for bit —
  // the cap only trades memory for repacking work. Shapes are chosen so a
  // 4-thread grid has several row blocks (m >> n), making the shared path
  // actually engage below the cap.
  const size_t m = 96, k = 40, n = 24;
  for (bool tb : {false, true}) {
    const Matrix a = RandMatrix(m, k, &rng_);
    const Matrix b = RandMatrix(tb ? n : k, tb ? k : n, &rng_);
    const Matrix c_init = RandMatrix(m, n, &rng_);
    Matrix want = c_init;
    NaiveGemm(false, tb, 1.0f, a, b, 0.0f, &want);
    for (size_t cap : {size_t{0}, size_t{1}, k * n, size_t{1} << 24}) {
      const kernels::internal::GemmBlocking blocking = {
          /*mc=*/64,
          /*kc=*/256,
          /*nc=*/256,
          /*min_rows_per_shard=*/8,
          /*min_cols_per_shard=*/16,
          /*shared_b_max_floats=*/cap,
      };
      Matrix got = c_init;
      kernels::internal::GemmBlocked(par4_, blocking, false, tb, 1.0f, a, b,
                                     0.0f, &got);
      SCOPED_TRACE(::testing::Message() << "cap=" << cap << " tb=" << tb);
      ExpectBitEqual(want, got, "shared-b-cap");
    }
  }
}

}  // namespace
}  // namespace garcia::core
