#include "core/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/macros.h"

#if defined(__x86_64__) || defined(__i386__)
#define GARCIA_KERNELS_X86 1
#include <immintrin.h>
#endif

namespace garcia::core {

namespace {

thread_local const ExecutionContext* tls_execution = nullptr;

}  // namespace

ExecutionContext::ExecutionContext(size_t num_threads) {
  if (num_threads >= 2) pool_ = std::make_unique<ThreadPool>(num_threads);
}

ExecutionContext::~ExecutionContext() = default;

size_t ExecutionContext::num_threads() const {
  return pool_ != nullptr ? pool_->num_threads() : 1;
}

void ExecutionContext::ShardedFor(
    size_t begin, size_t end, size_t min_shard,
    const std::function<void(size_t, size_t)>& fn) const {
  if (begin >= end) return;
  if (pool_ == nullptr) {
    fn(begin, end);
    return;
  }
  pool_->ParallelForShards(begin, end, fn, min_shard);
}

const ExecutionContext& SerialExecution() {
  static const ExecutionContext* serial = new ExecutionContext(0);
  return *serial;
}

const ExecutionContext& CurrentExecution() {
  return tls_execution != nullptr ? *tls_execution : SerialExecution();
}

ScopedExecution::ScopedExecution(const ExecutionContext* ctx)
    : prev_(tls_execution) {
  if (ctx != nullptr) tls_execution = ctx;
}

ScopedExecution::~ScopedExecution() { tls_execution = prev_; }

namespace kernels {

namespace internal {

bool HasAvx2() {
#if defined(GARCIA_KERNELS_X86)
  static const bool has = __builtin_cpu_supports("avx2") != 0;
  return has;
#else
  return false;
#endif
}

}  // namespace internal

namespace {

using internal::kGemmMr;
using internal::kGemmNr;

// ----- Packed GEMM -----
//
// C = beta*C + alpha*op(A)@op(B) as a BLIS-style packed kernel. The output
// is tiled into (row block x column panel) cells; each cell walks the k
// dimension in KC-deep panels, packing op(A) into MR-row panels and op(B)
// into NR-column panels read STRIDED from their sources (so transposed
// operands are packed in place, never materialized as whole matrices), and
// a register-tiled MR x NR micro-kernel does the arithmetic.
//
// Bit-identity argument: the value of C[i,j] is
//   fl(beta*C[i,j]) then += fl(fl(alpha*a_op[i,l]) * b_op[l,j]),
//   l = 0..k-1 ascending,
// for EVERY tiling. k is never split across tiles; k-panels run in
// ascending order within a tile; between panels the partial sum round-trips
// through C (or stays in the micro-kernel accumulator), and a float
// store/load is exact. Tile shapes therefore cannot change the result, so
// serial, any thread count, any blocking and all four transpose flags
// agree bit for bit.
//
// Zero operands are NOT skipped: a 0 in op(A) still contributes
// fl(0 * b_op[l,j]), so IEEE non-finite values in B propagate (0*Inf = NaN)
// exactly as in the naive reference.
//
// The micro-kernels (GemmMicroKernel, GemmMicroKernelAvx2 and, for a panel
// with one valid column, GemmSingleColumn) all run that per-element
// sequence: each vector lane owns one C element and takes a separate
// multiply and add per step. None uses FMA, which would round the product
// and sum once instead of twice. So which kernel runs, like the tiling,
// cannot change a bit. kGemmMr and kGemmNr only fix the packed layouts.

inline size_t CeilDiv(size_t a, size_t b) { return (a + b - 1) / b; }

// Per-thread packing scratch, reused across calls and k-panels. Workers
// each see their own copy (thread_local), so packing is race-free without
// synchronization.
struct GemmPackBuffers {
  std::vector<float> a;  // ceil(mb/MR) panels of kc x MR
  std::vector<float> b;  // ceil(nb/NR) panels of kc x NR
  /// Shared pre-packed op(B): every (column panel x k panel) group packed
  /// once, reused by all row blocks. Owned by the thread that called Gemm
  /// (workers only write disjoint groups into it during the pack phase).
  std::vector<float> b_shared;
};

GemmPackBuffers& TlsGemmBuffers() {
  static thread_local GemmPackBuffers bufs;
  return bufs;
}

// Packs op(A)[i0:i0+mb, l0:l0+kc), scaled by alpha, into MR-row panels:
// packed[(p*kc + l)*MR + r] = fl(alpha * a_op(i0 + p*MR + r, l0 + l)),
// zero-padded to a multiple of MR rows. Reads A directly at its source
// stride for either transpose flag.
void PackA(bool trans_a, float alpha, const float* a, size_t lda, size_t i0,
           size_t mb, size_t l0, size_t kc, float* packed) {
  const size_t panels = CeilDiv(mb, kGemmMr);
  if (trans_a) {
    // a_op(i, l) = a[l*lda + i]: row l of A is contiguous in i, so walk l
    // outermost and copy row slices into each panel.
    for (size_t p = 0; p < panels; ++p) {
      const size_t r_valid = std::min(kGemmMr, mb - p * kGemmMr);
      float* dst = packed + p * kc * kGemmMr;
      for (size_t l = 0; l < kc; ++l) {
        const float* src = a + (l0 + l) * lda + i0 + p * kGemmMr;
        for (size_t r = 0; r < r_valid; ++r) dst[l * kGemmMr + r] = alpha * src[r];
        for (size_t r = r_valid; r < kGemmMr; ++r) dst[l * kGemmMr + r] = 0.0f;
      }
    }
    return;
  }
  // a_op(i, l) = a[i*lda + l]: row i is contiguous in l, so walk rows and
  // scatter each into its panel column.
  for (size_t p = 0; p < panels; ++p) {
    const size_t r_valid = std::min(kGemmMr, mb - p * kGemmMr);
    float* dst = packed + p * kc * kGemmMr;
    for (size_t r = 0; r < r_valid; ++r) {
      const float* src = a + (i0 + p * kGemmMr + r) * lda + l0;
      for (size_t l = 0; l < kc; ++l) dst[l * kGemmMr + r] = alpha * src[l];
    }
    for (size_t r = r_valid; r < kGemmMr; ++r) {
      for (size_t l = 0; l < kc; ++l) dst[l * kGemmMr + r] = 0.0f;
    }
  }
}

// Packs op(B)[l0:l0+kc, j0:j0+nb) into NR-column panels:
// packed[(p*kc + l)*NR + c] = b_op(l0 + l, j0 + p*NR + c), zero-padded to a
// multiple of NR columns.
void PackB(bool trans_b, const float* b, size_t ldb, size_t l0, size_t kc,
           size_t j0, size_t nb, float* packed) {
  const size_t panels = CeilDiv(nb, kGemmNr);
  if (trans_b) {
    // b_op(l, j) = b[j*ldb + l]: column j of op(B) is contiguous in l.
    for (size_t p = 0; p < panels; ++p) {
      const size_t c_valid = std::min(kGemmNr, nb - p * kGemmNr);
      float* dst = packed + p * kc * kGemmNr;
      for (size_t c = 0; c < c_valid; ++c) {
        const float* src = b + (j0 + p * kGemmNr + c) * ldb + l0;
        for (size_t l = 0; l < kc; ++l) dst[l * kGemmNr + c] = src[l];
      }
      for (size_t c = c_valid; c < kGemmNr; ++c) {
        for (size_t l = 0; l < kc; ++l) dst[l * kGemmNr + c] = 0.0f;
      }
    }
    return;
  }
  // b_op(l, j) = b[l*ldb + j]: row l is contiguous in j.
  for (size_t p = 0; p < panels; ++p) {
    const size_t c_valid = std::min(kGemmNr, nb - p * kGemmNr);
    float* dst = packed + p * kc * kGemmNr;
    for (size_t l = 0; l < kc; ++l) {
      const float* src = b + (l0 + l) * ldb + j0 + p * kGemmNr;
      for (size_t c = 0; c < c_valid; ++c) dst[l * kGemmNr + c] = src[c];
      for (size_t c = c_valid; c < kGemmNr; ++c) dst[l * kGemmNr + c] = 0.0f;
    }
  }
}

}  // namespace

namespace internal {

// The portable twin, and the path off x86 or without AVX2. GCC at -O2
// keeps `acc` on the stack and round-trips it through memory on every
// step; GemmMicroKernelAvx2 is the register-resident kernel.
void GemmMicroKernel(const float* ap, const float* bp, size_t kc, float* c,
                     size_t ldc, size_t m_valid, size_t n_valid) {
  float acc[kGemmMr][kGemmNr];
  for (size_t r = 0; r < kGemmMr; ++r) {
    for (size_t j = 0; j < kGemmNr; ++j) {
      acc[r][j] = (r < m_valid && j < n_valid) ? c[r * ldc + j] : 0.0f;
    }
  }
  for (size_t l = 0; l < kc; ++l) {
    const float* arow = ap + l * kGemmMr;
    const float* brow = bp + l * kGemmNr;
    for (size_t r = 0; r < kGemmMr; ++r) {
      const float av = arow[r];
      for (size_t j = 0; j < kGemmNr; ++j) acc[r][j] += av * brow[j];
    }
  }
  for (size_t r = 0; r < m_valid; ++r) {
    for (size_t j = 0; j < n_valid; ++j) c[r * ldc + j] = acc[r][j];
  }
}

#if defined(GARCIA_KERNELS_X86)
namespace {

/// A full kGemmMr x kGemmNr tile: row r of C lives in one ymm register for
/// all kc steps and takes fl(fl(a[l, r] * b[l, :]) + acc) per step.
__attribute__((target("avx2"))) void GemmTileAvx2(const float* ap,
                                                  const float* bp, size_t kc,
                                                  float* c, size_t ldc) {
  static_assert(kGemmMr == 4 && kGemmNr == 8, "one ymm row per tile row");
  __m256 acc0 = _mm256_loadu_ps(c);
  __m256 acc1 = _mm256_loadu_ps(c + ldc);
  __m256 acc2 = _mm256_loadu_ps(c + 2 * ldc);
  __m256 acc3 = _mm256_loadu_ps(c + 3 * ldc);
  for (size_t l = 0; l < kc; ++l) {
    const __m256 b = _mm256_loadu_ps(bp + l * kGemmNr);
    const float* a = ap + l * kGemmMr;
    acc0 = _mm256_add_ps(acc0, _mm256_mul_ps(_mm256_broadcast_ss(a), b));
    acc1 = _mm256_add_ps(acc1, _mm256_mul_ps(_mm256_broadcast_ss(a + 1), b));
    acc2 = _mm256_add_ps(acc2, _mm256_mul_ps(_mm256_broadcast_ss(a + 2), b));
    acc3 = _mm256_add_ps(acc3, _mm256_mul_ps(_mm256_broadcast_ss(a + 3), b));
  }
  _mm256_storeu_ps(c, acc0);
  _mm256_storeu_ps(c + ldc, acc1);
  _mm256_storeu_ps(c + 2 * ldc, acc2);
  _mm256_storeu_ps(c + 3 * ldc, acc3);
}

/// kPanels consecutive packed A panels against column 0 of a B panel: lane
/// r of acc[p] is row p * kGemmMr + r. The kPanels chains are independent,
/// which hides add latency.
template <size_t kPanels>
inline void SingleColumnPanels(const float* ap, size_t panel_stride,
                               const float* bp, size_t kc, __m128 acc[]) {
  for (size_t l = 0; l < kc; ++l) {
    const __m128 b = _mm_set1_ps(bp[l * kGemmNr]);
#pragma GCC unroll 8
    for (size_t p = 0; p < kPanels; ++p) {
      const __m128 a = _mm_loadu_ps(ap + p * panel_stride + l * kGemmMr);
      acc[p] = _mm_add_ps(acc[p], _mm_mul_ps(a, b));
    }
  }
}

}  // namespace
#endif  // GARCIA_KERNELS_X86

void GemmMicroKernelAvx2(const float* ap, const float* bp, size_t kc,
                         float* c, size_t ldc, size_t m_valid,
                         size_t n_valid) {
#if defined(GARCIA_KERNELS_X86)
  if (m_valid == kGemmMr && n_valid == kGemmNr) {
    GemmTileAvx2(ap, bp, kc, c, ldc);
    return;
  }
  // A partial tile: the padded lanes start at 0 and are never stored back.
  float tile[kGemmMr * kGemmNr] = {};
  for (size_t r = 0; r < m_valid; ++r) {
    std::copy(c + r * ldc, c + r * ldc + n_valid, tile + r * kGemmNr);
  }
  GemmTileAvx2(ap, bp, kc, tile, kGemmNr);
  for (size_t r = 0; r < m_valid; ++r) {
    std::copy(tile + r * kGemmNr, tile + r * kGemmNr + n_valid, c + r * ldc);
  }
#else
  GemmMicroKernel(ap, bp, kc, c, ldc, m_valid, n_valid);
#endif
}

void GemmSingleColumn(const float* ap, size_t m_valid, const float* bp,
                      size_t kc, float* c, size_t ldc) {
  const size_t panel_stride = kc * kGemmMr;
#if defined(GARCIA_KERNELS_X86)
  constexpr size_t kGroup = 8;  // panels in flight
  size_t p0 = 0;
  for (; (p0 + kGroup) * kGemmMr <= m_valid; p0 += kGroup) {
    float* cp = c + p0 * kGemmMr * ldc;
    __m128 acc[kGroup];
    for (size_t p = 0; p < kGroup; ++p) {
      const float* cr = cp + p * kGemmMr * ldc;
      acc[p] = _mm_setr_ps(cr[0], cr[ldc], cr[2 * ldc], cr[3 * ldc]);
    }
    SingleColumnPanels<kGroup>(ap + p0 * panel_stride, panel_stride, bp, kc,
                               acc);
    for (size_t p = 0; p < kGroup; ++p) {
      alignas(16) float lanes[kGemmMr];
      _mm_store_ps(lanes, acc[p]);
      for (size_t r = 0; r < kGemmMr; ++r) {
        cp[(p * kGemmMr + r) * ldc] = lanes[r];
      }
    }
  }
  // The last panels one at a time; a short last panel's padded lanes start
  // at 0 and are never stored back.
  for (; p0 * kGemmMr < m_valid; ++p0) {
    const size_t rows = std::min(kGemmMr, m_valid - p0 * kGemmMr);
    float* cp = c + p0 * kGemmMr * ldc;
    alignas(16) float lanes[kGemmMr] = {};
    for (size_t r = 0; r < rows; ++r) lanes[r] = cp[r * ldc];
    __m128 acc[1] = {_mm_load_ps(lanes)};
    SingleColumnPanels<1>(ap + p0 * panel_stride, panel_stride, bp, kc, acc);
    _mm_store_ps(lanes, acc[0]);
    for (size_t r = 0; r < rows; ++r) cp[r * ldc] = lanes[r];
  }
#else
  for (size_t i = 0; i < m_valid; ++i) {
    const float* a = ap + (i / kGemmMr) * panel_stride + i % kGemmMr;
    float acc = c[i * ldc];
    for (size_t l = 0; l < kc; ++l) acc += a[l * kGemmMr] * bp[l * kGemmNr];
    c[i * ldc] = acc;
  }
#endif
}

}  // namespace internal

namespace {

inline void AddRow(float* dst, const float* src, size_t cols) {
  for (size_t j = 0; j < cols; ++j) dst[j] += src[j];
}

}  // namespace

void Gemm(const ExecutionContext& ctx, bool trans_a, bool trans_b, float alpha,
          const Matrix& a, const Matrix& b, float beta, Matrix* c) {
  internal::GemmBlocked(ctx, internal::kGemmBlocking, trans_a, trans_b, alpha,
                        a, b, beta, c);
}

namespace internal {

void GemmBlocked(const ExecutionContext& ctx, const GemmBlocking& blocking,
                 bool trans_a, bool trans_b, float alpha, const Matrix& a,
                 const Matrix& b, float beta, Matrix* c, GemmKernels kernels) {
  const size_t m = trans_a ? a.cols() : a.rows();
  const size_t k = trans_a ? a.rows() : a.cols();
  const size_t kb = trans_b ? b.cols() : b.rows();
  const size_t n = trans_b ? b.rows() : b.cols();
  GARCIA_CHECK_EQ(k, kb) << "GEMM inner dimension mismatch";
  GARCIA_CHECK_EQ(c->rows(), m);
  GARCIA_CHECK_EQ(c->cols(), n);

  if (beta == 0.0f) {
    c->Fill(0.0f);
  } else if (beta != 1.0f) {
    c->Scale(beta);
  }
  if (alpha == 0.0f || m == 0 || n == 0 || k == 0) return;

  const size_t kc_max = std::max<size_t>(1, blocking.kc);
  size_t mb = std::min(m, std::max<size_t>(1, blocking.mc));
  size_t nb = std::min(n, std::max<size_t>(1, blocking.nc));
  if (ctx.parallel()) {
    // Refine the tile grid until every worker has a couple of tiles, never
    // below the blocking floors. Small-m trans_a GEMMs (dW = X^T dY: m = n =
    // hidden dim, k = node count) split over columns and finer row blocks
    // here instead of collapsing onto a handful of row shards. The chosen
    // grid cannot change the result (see the bit-identity argument above).
    const size_t target = 2 * ctx.num_threads();
    const size_t mb_floor = std::max<size_t>(1, blocking.min_rows_per_shard);
    const size_t nb_floor = std::max<size_t>(1, blocking.min_cols_per_shard);
    while (CeilDiv(m, mb) * CeilDiv(n, nb) < target) {
      const bool can_m = mb / 2 >= mb_floor;
      const bool can_n = nb / 2 >= nb_floor;
      if (!can_m && !can_n) break;
      if (can_m && (mb >= nb || !can_n)) {
        mb /= 2;
      } else {
        nb /= 2;
      }
    }
  }
  const size_t row_blocks = CeilDiv(m, mb);
  const size_t col_panels = CeilDiv(n, nb);

  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c->data();
  const size_t lda = a.cols(), ldb = b.cols(), ldc = c->cols();
  const size_t a_pack_floats = CeilDiv(mb, kGemmMr) * kGemmMr * kc_max;
  const size_t b_pack_floats = CeilDiv(nb, kGemmNr) * kGemmNr * kc_max;

  // With more than one row block, every row block walks the same op(B)
  // panels, so pack them ONCE into a shared buffer — one (column panel x
  // k panel) group per slot, at a uniform stride — and let the tile loop
  // read them instead of re-packing per row block. The pack phase shards
  // over groups (disjoint writes); ShardedFor's completion barrier
  // publishes the buffer to the compute phase. Each group's contents are
  // byte-identical to what the per-tile PackB would produce, so sharing
  // cannot change the result. Falls back to per-tile packing when the
  // buffer would exceed the blocking cap.
  const size_t kc_count = CeilDiv(k, kc_max);
  const size_t b_group_stride = CeilDiv(nb, kGemmNr) * kGemmNr * kc_max;
  const size_t b_shared_floats = b_group_stride * col_panels * kc_count;
  const bool share_b =
      row_blocks > 1 && b_shared_floats <= blocking.shared_b_max_floats;
  GemmPackBuffers& caller_bufs = TlsGemmBuffers();
  if (share_b) {
    if (caller_bufs.b_shared.size() < b_shared_floats) {
      caller_bufs.b_shared.resize(b_shared_floats);
    }
    float* shared = caller_bufs.b_shared.data();
    ctx.ShardedFor(0, col_panels * kc_count, /*min_shard=*/1,
                   [&](size_t g_begin, size_t g_end) {
                     for (size_t g = g_begin; g < g_end; ++g) {
                       const size_t jp = g / kc_count;
                       const size_t lp = g % kc_count;
                       const size_t j0 = jp * nb;
                       const size_t l0 = lp * kc_max;
                       PackB(trans_b, bd, ldb, l0, std::min(kc_max, k - l0),
                             j0, std::min(nb, n - j0),
                             shared + g * b_group_stride);
                     }
                   });
  }
  const float* b_shared = share_b ? caller_bufs.b_shared.data() : nullptr;
  const bool dispatch = kernels == GemmKernels::kDispatch;
  const auto micro_kernel = dispatch && HasAvx2() ? &GemmMicroKernelAvx2
                                                  : &GemmMicroKernel;

  // Shard the flattened 2-D tile grid. Tiles write disjoint C regions, so
  // shards need no synchronization; each shard packs its own A panels (and,
  // without sharing, B panels) into thread-local scratch.
  ctx.ShardedFor(
      0, row_blocks * col_panels, /*min_shard=*/1,
      [&](size_t t_begin, size_t t_end) {
        GemmPackBuffers& bufs = TlsGemmBuffers();
        if (bufs.a.size() < a_pack_floats) bufs.a.resize(a_pack_floats);
        if (!share_b && bufs.b.size() < b_pack_floats) {
          bufs.b.resize(b_pack_floats);
        }
        for (size_t t = t_begin; t < t_end; ++t) {
          const size_t i0 = (t / col_panels) * mb;
          const size_t jp = t % col_panels;
          const size_t j0 = jp * nb;
          const size_t mbt = std::min(mb, m - i0);
          const size_t nbt = std::min(nb, n - j0);
          for (size_t l0 = 0; l0 < k; l0 += kc_max) {
            const size_t kct = std::min(kc_max, k - l0);
            PackA(trans_a, alpha, ad, lda, i0, mbt, l0, kct, bufs.a.data());
            const float* b_panels;
            if (share_b) {
              b_panels = b_shared +
                         (jp * kc_count + l0 / kc_max) * b_group_stride;
            } else {
              PackB(trans_b, bd, ldb, l0, kct, j0, nbt, bufs.b.data());
              b_panels = bufs.b.data();
            }
            for (size_t jr = 0; jr < nbt; jr += kGemmNr) {
              const float* bp = b_panels + (jr / kGemmNr) * kct * kGemmNr;
              const size_t n_valid = std::min(kGemmNr, nbt - jr);
              float* cj = cd + i0 * ldc + j0 + jr;
              if (dispatch && n_valid == 1) {
                GemmSingleColumn(bufs.a.data(), mbt, bp, kct, cj, ldc);
                continue;
              }
              for (size_t ir = 0; ir < mbt; ir += kGemmMr) {
                micro_kernel(bufs.a.data() + (ir / kGemmMr) * kct * kGemmMr,
                             bp, kct, cj + ir * ldc, ldc,
                             std::min(kGemmMr, mbt - ir), n_valid);
              }
            }
          }
        }
      });
}

}  // namespace internal

void UnaryForward(UnaryOp op, float slope, const float* x, float* y,
                  size_t n) {
  switch (op) {
    case UnaryOp::kRelu:
      for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : 0.0f;
      break;
    case UnaryOp::kTanh:
      for (size_t i = 0; i < n; ++i) y[i] = std::tanh(x[i]);
      break;
    case UnaryOp::kLeakyRelu:
      for (size_t i = 0; i < n; ++i) y[i] = x[i] > 0.0f ? x[i] : slope * x[i];
      break;
    case UnaryOp::kSigmoid:
      for (size_t i = 0; i < n; ++i) {
        const float v = x[i];
        y[i] = v >= 0.0f ? 1.0f / (1.0f + std::exp(-v))
                         : std::exp(v) / (1.0f + std::exp(v));
      }
      break;
  }
}

void UnaryBackwardAdd(UnaryOp op, float slope, const float* x, const float* y,
                      const float* dy, float* dx, size_t n) {
  switch (op) {
    case UnaryOp::kRelu:
      for (size_t i = 0; i < n; ++i) {
        if (x[i] > 0.0f) dx[i] += dy[i];
      }
      break;
    case UnaryOp::kTanh:
      for (size_t i = 0; i < n; ++i) dx[i] += dy[i] * (1.0f - y[i] * y[i]);
      break;
    case UnaryOp::kLeakyRelu:
      for (size_t i = 0; i < n; ++i) {
        dx[i] += dy[i] * (x[i] > 0.0f ? 1.0f : slope);
      }
      break;
    case UnaryOp::kSigmoid:
      for (size_t i = 0; i < n; ++i) dx[i] += dy[i] * (y[i] * (1.0f - y[i]));
      break;
  }
}

void GatherRows(const Matrix& src, const std::vector<uint32_t>& idx,
                Matrix* out) {
  GARCIA_CHECK_EQ(out->rows(), idx.size());
  GARCIA_CHECK_EQ(out->cols(), src.cols());
  const size_t cols = src.cols();
  for (size_t i = 0; i < idx.size(); ++i) {
    GARCIA_CHECK_LT(idx[i], src.rows());
    std::memcpy(out->row(i), src.row(idx[i]), cols * sizeof(float));
  }
}

void GatherAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                   Matrix* out) {
  GARCIA_CHECK_EQ(out->rows(), idx.size());
  GARCIA_CHECK_EQ(out->cols(), src.cols());
  const size_t cols = src.cols();
  for (size_t i = 0; i < idx.size(); ++i) {
    GARCIA_CHECK_LT(idx[i], src.rows());
    AddRow(out->row(i), src.row(idx[i]), cols);
  }
}

void ScatterAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                    Matrix* accum) {
  GARCIA_CHECK_EQ(src.rows(), idx.size());
  GARCIA_CHECK_EQ(src.cols(), accum->cols());
  const size_t cols = src.cols();
  for (size_t e = 0; e < idx.size(); ++e) {
    GARCIA_CHECK_LT(idx[e], accum->rows());
    AddRow(accum->row(idx[e]), src.row(e), cols);
  }
}

void SegmentSum(const Matrix& x, const std::vector<uint32_t>& seg,
                size_t num_segments, Matrix* out) {
  GARCIA_CHECK_EQ(out->rows(), num_segments);
  out->Fill(0.0f);
  ScatterAddRows(x, seg, out);
}

void SegmentSoftmax(const Matrix& scores, const std::vector<uint32_t>& seg,
                    size_t num_segments, Matrix* out) {
  GARCIA_CHECK_EQ(scores.cols(), 1u);
  GARCIA_CHECK_EQ(seg.size(), scores.rows());
  GARCIA_CHECK_EQ(out->rows(), seg.size());
  GARCIA_CHECK_EQ(out->cols(), 1u);
  const size_t e_count = seg.size();
  std::vector<float> seg_max(num_segments, -1e30f);
  for (size_t e = 0; e < e_count; ++e) {
    GARCIA_CHECK_LT(seg[e], num_segments);
    seg_max[seg[e]] = std::max(seg_max[seg[e]], scores.at(e, 0));
  }
  std::vector<double> seg_sum(num_segments, 0.0);
  for (size_t e = 0; e < e_count; ++e) {
    out->at(e, 0) = std::exp(scores.at(e, 0) - seg_max[seg[e]]);
    seg_sum[seg[e]] += out->at(e, 0);
  }
  for (size_t e = 0; e < e_count; ++e) {
    out->at(e, 0) = static_cast<float>(out->at(e, 0) / seg_sum[seg[e]]);
  }
}

void SegmentSoftmaxBackwardAdd(const Matrix& alpha, const Matrix& dalpha,
                               const std::vector<uint32_t>& seg,
                               size_t num_segments, Matrix* dscores) {
  GARCIA_CHECK_EQ(alpha.rows(), seg.size());
  GARCIA_CHECK_EQ(dalpha.rows(), seg.size());
  GARCIA_CHECK_EQ(dscores->rows(), seg.size());
  const size_t e_count = seg.size();
  std::vector<double> seg_dot(num_segments, 0.0);
  for (size_t e = 0; e < e_count; ++e) {
    GARCIA_CHECK_LT(seg[e], num_segments);
    seg_dot[seg[e]] += static_cast<double>(dalpha.at(e, 0)) * alpha.at(e, 0);
  }
  for (size_t e = 0; e < e_count; ++e) {
    dscores->at(e, 0) +=
        alpha.at(e, 0) *
        (dalpha.at(e, 0) - static_cast<float>(seg_dot[seg[e]]));
  }
}

void ScaleRowsInPlace(Matrix* x, const Matrix& w) {
  GARCIA_CHECK_EQ(w.cols(), 1u);
  GARCIA_CHECK_EQ(w.rows(), x->rows());
  const size_t cols = x->cols();
  for (size_t i = 0; i < x->rows(); ++i) {
    const float wi = w.at(i, 0);
    float* r = x->row(i);
    for (size_t j = 0; j < cols; ++j) r[j] *= wi;
  }
}

void RowDotAdd(const Matrix& a, const Matrix& b, Matrix* out) {
  GARCIA_CHECK_EQ(a.rows(), b.rows());
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  GARCIA_CHECK_EQ(out->rows(), a.rows());
  GARCIA_CHECK_EQ(out->cols(), 1u);
  const size_t cols = a.cols();
  for (size_t i = 0; i < a.rows(); ++i) {
    double acc = 0.0;
    const float* ra = a.row(i);
    const float* rb = b.row(i);
    for (size_t j = 0; j < cols; ++j) {
      acc += static_cast<double>(ra[j]) * rb[j];
    }
    out->at(i, 0) += static_cast<float>(acc);
  }
}

void L2NormalizeRows(const Matrix& x, float eps, Matrix* out,
                     std::vector<float>* norms) {
  GARCIA_CHECK_EQ(out->rows(), x.rows());
  GARCIA_CHECK_EQ(out->cols(), x.cols());
  const size_t d = x.cols();
  norms->resize(x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    const float* r = x.row(i);
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += static_cast<double>(r[j]) * r[j];
    const float norm = static_cast<float>(std::sqrt(s));
    (*norms)[i] = std::max(norm, eps);
    const float inv = norm > eps ? 1.0f / norm : 0.0f;
    // Zero rows (norm <= eps) map to zero rows.
    float* o = out->row(i);
    for (size_t j = 0; j < d; ++j) o[j] = r[j] * inv;
  }
}

void L2NormalizeRowsBackwardAdd(const Matrix& y, const Matrix& dy,
                                const std::vector<float>& norms, float eps,
                                Matrix* dx) {
  GARCIA_CHECK_EQ(norms.size(), y.rows());
  GARCIA_CHECK_EQ(dx->rows(), y.rows());
  const size_t d = y.cols();
  for (size_t i = 0; i < y.rows(); ++i) {
    if (norms[i] <= eps) continue;  // zero row: zero gradient
    const float* yi = y.row(i);
    const float* dyi = dy.row(i);
    double dot = 0.0;
    for (size_t j = 0; j < d; ++j) {
      dot += static_cast<double>(dyi[j]) * yi[j];
    }
    const float inv = 1.0f / norms[i];
    float* gi = dx->row(i);
    for (size_t j = 0; j < d; ++j) {
      gi[j] += (dyi[j] - static_cast<float>(dot) * yi[j]) * inv;
    }
  }
}

void SoftmaxRows(Matrix* x) {
  const size_t cols = x->cols();
  for (size_t i = 0; i < x->rows(); ++i) {
    float* r = x->row(i);
    float mx = r[0];
    for (size_t j = 1; j < cols; ++j) mx = std::max(mx, r[j]);
    double sum = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      r[j] = std::exp(r[j] - mx);
      sum += r[j];
    }
    const float inv = static_cast<float>(1.0 / sum);
    for (size_t j = 0; j < cols; ++j) r[j] *= inv;
  }
}

void SoftmaxRowsBackwardAdd(const Matrix& y, const Matrix& dy, Matrix* dx) {
  GARCIA_CHECK_EQ(dy.rows(), y.rows());
  GARCIA_CHECK_EQ(dy.cols(), y.cols());
  GARCIA_CHECK_EQ(dx->rows(), y.rows());
  GARCIA_CHECK_EQ(dx->cols(), y.cols());
  const size_t cols = y.cols();
  for (size_t i = 0; i < y.rows(); ++i) {
    const float* yi = y.row(i);
    const float* dyi = dy.row(i);
    double dot = 0.0;
    for (size_t j = 0; j < cols; ++j) {
      dot += static_cast<double>(dyi[j]) * yi[j];
    }
    float* gi = dx->row(i);
    for (size_t j = 0; j < cols; ++j) {
      gi[j] += yi[j] * (dyi[j] - static_cast<float>(dot));
    }
  }
}

double CrossEntropyForward(Matrix* logits,
                           const std::vector<uint32_t>& targets) {
  const size_t n = logits->rows(), m = logits->cols();
  GARCIA_CHECK_EQ(targets.size(), n);
  GARCIA_CHECK_GT(n, 0u);
  double loss = 0.0;
  for (size_t i = 0; i < n; ++i) {
    GARCIA_CHECK_LT(targets[i], m);
    float* r = logits->row(i);
    float mx = r[0];
    for (size_t j = 1; j < m; ++j) mx = std::max(mx, r[j]);
    double sum = 0.0;
    for (size_t j = 0; j < m; ++j) {
      sum += std::exp(static_cast<double>(r[j]) - mx);
    }
    const double lse = mx + std::log(sum);
    loss += lse - r[targets[i]];
    for (size_t j = 0; j < m; ++j) {
      r[j] = static_cast<float>(std::exp(static_cast<double>(r[j]) - lse));
    }
  }
  return loss;
}

void CrossEntropyBackwardAdd(const Matrix& softmax,
                             const std::vector<uint32_t>& targets, float gout,
                             Matrix* dlogits) {
  GARCIA_CHECK_EQ(dlogits->rows(), softmax.rows());
  GARCIA_CHECK_EQ(dlogits->cols(), softmax.cols());
  const size_t m = softmax.cols();
  for (size_t i = 0; i < softmax.rows(); ++i) {
    const float* s = softmax.row(i);
    float* gr = dlogits->row(i);
    for (size_t j = 0; j < m; ++j) gr[j] += gout * s[j];
    gr[targets[i]] -= gout;
  }
}

// ----- Top-K retrieval -----

namespace internal {

void DotPanelScalar(const float* query, const RowPanel& panel, size_t lo,
                    size_t hi, float* out) {
  constexpr size_t kLanes = RowPanel::kLanes;
  GARCIA_DCHECK(lo % kLanes == 0 && hi <= panel.rows_);
  const size_t dim = panel.dim_;
  for (size_t i = lo; i < hi; ++i) {
    const float* col =
        panel.data_.data() + (i / kLanes) * dim * kLanes + i % kLanes;
    double dot = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      dot += static_cast<double>(query[j]) * col[j * kLanes];
    }
    out[i - lo] = static_cast<float>(dot);
  }
}

#if defined(GARCIA_KERNELS_X86)
namespace {

/// Lane-per-row scoring of kBlocks consecutive panel blocks from `block`
/// into out[0, 8 * kBlocks). Lane r of acc[2b] (acc[2b + 1]) is row r
/// (4 + r) of block b and receives its columns one at a time in ascending
/// j, starting from 0.0 — DotRowDouble's additions in DotRowDouble's
/// order. Each product of two widened floats is exact in double (24 + 24
/// <= 53 significand bits), so the separate multiply rounds nowhere and
/// every add rounds exactly where DotRowDouble's does. A column of a block
/// is eight consecutive floats, widened four at a time straight from
/// memory, so the loop does no shuffles. The 2 * kBlocks chains are
/// independent, which hides add latency.
template <size_t kBlocks>
__attribute__((target("avx2"))) inline void DotPanelBlocksAvx2(
    const float* query, const float* block, size_t dim, float* out) {
  constexpr size_t kLanes = RowPanel::kLanes;
  __m256d acc[2 * kBlocks];
  for (__m256d& a : acc) a = _mm256_setzero_pd();
  for (size_t j = 0; j < dim; ++j) {
    const __m256d q = _mm256_set1_pd(static_cast<double>(query[j]));
#pragma GCC unroll 4
    for (size_t h = 0; h < 2 * kBlocks; ++h) {
      const float* col = block + (h / 2) * dim * kLanes + j * kLanes;
      const __m256d c = _mm256_cvtps_pd(_mm_loadu_ps(col + (h % 2) * 4));
      acc[h] = _mm256_add_pd(acc[h], _mm256_mul_pd(c, q));
    }
  }
#pragma GCC unroll 4
  for (size_t h = 0; h < 2 * kBlocks; ++h) {
    _mm_storeu_ps(out + 4 * h, _mm256_cvtpd_ps(acc[h]));
  }
}

/// DotPanelAvx2's body: two blocks (16 rows) per pass, then the last
/// block, if any, alone; a short last block is scored into a buffer and
/// only its real rows are stored.
__attribute__((target("avx2"))) void DotPanelAvx2Impl(const float* query,
                                                      const float* data,
                                                      size_t dim, size_t lo,
                                                      size_t hi, float* out) {
  constexpr size_t kLanes = RowPanel::kLanes;
  size_t i = lo;
  for (; i + 2 * kLanes <= hi; i += 2 * kLanes) {
    DotPanelBlocksAvx2<2>(query, data + i * dim, dim, out + (i - lo));
  }
  for (; i < hi; i += kLanes) {
    float block[kLanes];
    DotPanelBlocksAvx2<1>(query, data + i * dim, dim, block);
    std::copy(block, block + std::min(kLanes, hi - i), out + (i - lo));
  }
}

}  // namespace
#endif  // GARCIA_KERNELS_X86

void DotPanelAvx2(const float* query, const RowPanel& panel, size_t lo,
                  size_t hi, float* out) {
#if defined(GARCIA_KERNELS_X86)
  GARCIA_DCHECK(lo % RowPanel::kLanes == 0 && hi <= panel.rows_);
  DotPanelAvx2Impl(query, panel.data_.data(), panel.dim_, lo, hi, out);
#else
  DotPanelScalar(query, panel, lo, hi, out);
#endif
}

}  // namespace internal

RowPanel::RowPanel(const Matrix& rows) : rows_(rows.rows()), dim_(rows.cols()) {
  const size_t blocks = (rows_ + kLanes - 1) / kLanes;
  data_.assign(blocks * dim_ * kLanes, 0.0f);
  for (size_t i = 0; i < rows_; ++i) {
    const float* row = rows.row(i);
    float* dst = data_.data() + (i / kLanes) * dim_ * kLanes + i % kLanes;
    for (size_t j = 0; j < dim_; ++j) {
      GARCIA_CHECK(std::isfinite(row[j]))
          << "non-finite value in serving catalog (row " << i << ")";
      dst[j * kLanes] = row[j];
    }
  }
}

namespace {

// Rows scored per stack-buffer chunk before they enter the heap. A
// multiple of RowPanel::kLanes, so every chunk starts on a panel block.
constexpr size_t kScoreChunkRows = 256;

}  // namespace

// A bounded k-element heap whose top is the currently-worst kept candidate
// (std::*_heap with RanksBefore puts the comparator-maximal element — the
// one ranking LAST — on top). Rows enter in ascending order, a chunk at a
// time. Once the heap is full, the top's score is kept in `worst`, and a
// row scoring below it costs one compare; a row that ties it still goes
// through RanksBefore.
std::vector<std::pair<uint32_t, float>> TopKDot(const float* query,
                                                const RowPanel& panel,
                                                size_t k) {
  using ScoredId = std::pair<uint32_t, float>;
  const size_t n = panel.rows();
  k = std::min(k, n);
  std::vector<ScoredId> out;
  if (k == 0) return out;
  const auto score = internal::HasAvx2() ? &internal::DotPanelAvx2
                                         : &internal::DotPanelScalar;
  float scores[kScoreChunkRows];
  for (size_t c0 = 0; c0 < n; c0 += kScoreChunkRows) {
    const size_t m = std::min(kScoreChunkRows, n - c0);
    score(query, panel, c0, c0 + m, scores);
    size_t r = 0;
    for (; r < m && out.size() < k; ++r) {  // filling the heap
      out.push_back({static_cast<uint32_t>(c0 + r), scores[r]});
      std::push_heap(out.begin(), out.end(), RanksBefore);
    }
    if (r == m) continue;
    float worst = out.front().second;
    for (; r < m; ++r) {
      if (scores[r] < worst) continue;
      const ScoredId cand{static_cast<uint32_t>(c0 + r), scores[r]};
      if (RanksBefore(cand, out.front())) {
        std::pop_heap(out.begin(), out.end(), RanksBefore);
        out.back() = cand;
        std::push_heap(out.begin(), out.end(), RanksBefore);
        worst = out.front().second;
      }
    }
  }
  std::sort_heap(out.begin(), out.end(), RanksBefore);
  return out;
}

// ----- k-means assignment -----

namespace internal {

void SquaredL2LanesScalar(const float* point, const double* panel,
                          size_t dim, size_t stride, double* out) {
  for (size_t c = 0; c < stride; ++c) {
    double d = 0.0;
    for (size_t j = 0; j < dim; ++j) {
      const double diff = static_cast<double>(point[j]) - panel[j * stride + c];
      d += diff * diff;
    }
    out[c] = d;
  }
}

#if defined(GARCIA_KERNELS_X86)
namespace {

/// Lane-per-centroid distances, 16 centroids per pass in four accumulators
/// (independent chains, which hides add latency). Lane l of acc_k is
/// centroid c + 4k + l and takes its columns one at a time in ascending j
/// from 0.0: the scalar loop's subtract, multiply and add, each rounded
/// once, in the scalar loop's order. The target list has no "fma", so the
/// multiply and add cannot be contracted (DotPanelBlocksAvx2's argument).
__attribute__((target("avx2"))) void SquaredL2LanesAvx2Impl(
    const float* point, const double* panel, size_t dim, size_t stride,
    double* out) {
  for (size_t c = 0; c < stride; c += kCentroidLanes) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    __m256d acc2 = _mm256_setzero_pd();
    __m256d acc3 = _mm256_setzero_pd();
    const double* col = panel + c;
    for (size_t j = 0; j < dim; ++j, col += stride) {
      const __m256d p = _mm256_set1_pd(static_cast<double>(point[j]));
      const __m256d d0 = _mm256_sub_pd(p, _mm256_loadu_pd(col));
      const __m256d d1 = _mm256_sub_pd(p, _mm256_loadu_pd(col + 4));
      const __m256d d2 = _mm256_sub_pd(p, _mm256_loadu_pd(col + 8));
      const __m256d d3 = _mm256_sub_pd(p, _mm256_loadu_pd(col + 12));
      acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(d0, d0));
      acc1 = _mm256_add_pd(acc1, _mm256_mul_pd(d1, d1));
      acc2 = _mm256_add_pd(acc2, _mm256_mul_pd(d2, d2));
      acc3 = _mm256_add_pd(acc3, _mm256_mul_pd(d3, d3));
    }
    _mm256_storeu_pd(out + c, acc0);
    _mm256_storeu_pd(out + c + 4, acc1);
    _mm256_storeu_pd(out + c + 8, acc2);
    _mm256_storeu_pd(out + c + 12, acc3);
  }
}

}  // namespace
#endif  // GARCIA_KERNELS_X86

void SquaredL2LanesAvx2(const float* point, const double* panel, size_t dim,
                        size_t stride, double* out) {
#if defined(GARCIA_KERNELS_X86)
  SquaredL2LanesAvx2Impl(point, panel, dim, stride, out);
#else
  SquaredL2LanesScalar(point, panel, dim, stride, out);
#endif
}

}  // namespace internal

size_t PackCentroidPanel(const Matrix& centroids, std::vector<double>* panel) {
  const size_t rows = centroids.rows(), dim = centroids.cols();
  const size_t stride =
      (rows + kCentroidLanes - 1) / kCentroidLanes * kCentroidLanes;
  panel->assign(dim * stride, 0.0);
  for (size_t c = 0; c < rows; ++c) {
    const float* row = centroids.row(c);
    for (size_t j = 0; j < dim; ++j) (*panel)[j * stride + c] = row[j];
  }
  return stride;
}

void SquaredL2Lanes(const float* point, const double* panel, size_t dim,
                    size_t stride, double* out) {
  GARCIA_DCHECK(stride % kCentroidLanes == 0);
  if (internal::HasAvx2()) {
    internal::SquaredL2LanesAvx2(point, panel, dim, stride, out);
  } else {
    internal::SquaredL2LanesScalar(point, panel, dim, stride, out);
  }
}

uint32_t ArgMinFirst(const double* values, size_t n) {
  GARCIA_DCHECK(n > 0);
  uint32_t best = 0;
  double best_value = values[0];
  for (size_t i = 1; i < n; ++i) {
    if (values[i] < best_value) {
      best_value = values[i];
      best = static_cast<uint32_t>(i);
    }
  }
  return best;
}

// ----- SQ8 scalar quantization -----

namespace sq8 {
namespace {

/// Integer part of one block of the asymmetric dot: sum of qc[j]*codes[j]
/// over n <= kDimBlock coordinates, exact in int32 (peak magnitude
/// kDimBlock * 32767 * 127 < 2^31). Four independent accumulators —
/// integer addition is associative, so the unroll cannot change the value.
int32_t Sq8BlockDotScalar(const int16_t* qc, const int8_t* codes, size_t n) {
  int32_t acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
  size_t j = 0;
  for (; j + 4 <= n; j += 4) {
    acc0 += static_cast<int32_t>(qc[j]) * codes[j];
    acc1 += static_cast<int32_t>(qc[j + 1]) * codes[j + 1];
    acc2 += static_cast<int32_t>(qc[j + 2]) * codes[j + 2];
    acc3 += static_cast<int32_t>(qc[j + 3]) * codes[j + 3];
  }
  for (; j < n; ++j) acc0 += static_cast<int32_t>(qc[j]) * codes[j];
  return acc0 + acc1 + acc2 + acc3;
}

/// Rows scored per pass of the AVX2 scan: one int32 accumulator each.
constexpr size_t kScanGroupRows = 8;

/// One asymmetric dot: exact integer accumulation in int32 over kDimBlock
/// blocks, widened to double at each block boundary, then scaled. This
/// double/float expression sequence is the scan's contract; the group
/// kernel below performs it lane by lane.
float Sq8DotOne(const int16_t* qc, const int8_t* codes, size_t dim,
                double qscale, float vscale) {
  double total = 0.0;
  for (size_t j0 = 0; j0 < dim; j0 += kDimBlock) {
    const size_t j1 = std::min(dim, j0 + kDimBlock);
    total += static_cast<double>(Sq8BlockDotScalar(qc + j0, codes + j0,
                                                   j1 - j0));
  }
  return static_cast<float>(qscale * static_cast<double>(vscale) * total);
}

/// The rows of a scan's concatenated ranges, from a given slot on.
class RowCursor {
 public:
  /// `slot` must be below the total slot count.
  RowCursor(const RowRanges& ranges, size_t slot) : ranges_(ranges) {
    while (slot >= ranges_[seg_].second - ranges_[seg_].first) {
      slot -= ranges_[seg_].second - ranges_[seg_].first;
      ++seg_;
    }
    row_ = ranges_[seg_].first + static_cast<uint32_t>(slot);
  }

  /// The row of the next slot; one must remain.
  uint32_t Next() {
    while (row_ == ranges_[seg_].second) row_ = ranges_[++seg_].first;
    return row_++;
  }

 private:
  const RowRanges& ranges_;
  size_t seg_ = 0;
  uint32_t row_ = 0;
};

#if defined(GARCIA_KERNELS_X86)
/// Scores the kScanGroupRows rows `rows` (scales `vscales`) into out[0, 8).
/// Per kDimBlock block, acc[r] sums row r's vpmaddwd products (int16 *
/// int16, adjacent pairs added into int32 lanes); per-lane
/// peak over a block is (kDimBlock / 16) * 2 * 32767 * 127 < 2^28. One
/// transposed reduction (three hadd levels and a 128-bit fold) leaves row
/// r's block sum in int32 lane r, and the block's dim % 16 column tail is
/// added per row in scalar int32. Every block sum is the scalar loop's
/// value, because integer addition is associative and the total stays
/// under the scalar peak. The sums are then widened to double (exact) and
/// added to lanes that start at 0.0, block by block in ascending order,
/// and each lane computes (qscale * vscale) * total and rounds it to
/// float: the scalar expression, operation for operation. The target list
/// has no "fma", so no multiply can be contracted into an add.
__attribute__((target("avx2"))) inline void ScanGroupAvx2(
    const int16_t* qc, const int8_t* const* rows, const float* vscales,
    size_t dim, double qscale, float* out) {
  __m256d total_lo = _mm256_setzero_pd();  // rows 0-3
  __m256d total_hi = _mm256_setzero_pd();  // rows 4-7
  for (size_t j0 = 0; j0 < dim; j0 += kDimBlock) {
    const size_t j1 = std::min(dim, j0 + kDimBlock);
    __m256i acc[kScanGroupRows] = {};
    size_t j = j0;
    for (; j + 16 <= j1; j += 16) {
      const __m256i q =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(qc + j));
#pragma GCC unroll 8
      for (size_t r = 0; r < kScanGroupRows; ++r) {
        const __m256i c = _mm256_cvtepi8_epi16(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(rows[r] + j)));
        acc[r] = _mm256_add_epi32(acc[r], _mm256_madd_epi16(q, c));
      }
    }
    // hadd adds adjacent lane pairs of its two operands within each
    // 128-bit half, so after two levels lane r % 4 of each half of h0123
    // (h4567) holds a partial sum of row r (row 4 + r); adding the two
    // halves completes row r's sum in lane r.
    const __m256i h01 = _mm256_hadd_epi32(acc[0], acc[1]);
    const __m256i h23 = _mm256_hadd_epi32(acc[2], acc[3]);
    const __m256i h45 = _mm256_hadd_epi32(acc[4], acc[5]);
    const __m256i h67 = _mm256_hadd_epi32(acc[6], acc[7]);
    const __m256i h0123 = _mm256_hadd_epi32(h01, h23);
    const __m256i h4567 = _mm256_hadd_epi32(h45, h67);
    __m256i sums =
        _mm256_add_epi32(_mm256_permute2x128_si256(h0123, h4567, 0x20),
                         _mm256_permute2x128_si256(h0123, h4567, 0x31));
    if (j < j1) {  // column tail: each row continues its own int32 sum
      alignas(32) int32_t lane[kScanGroupRows];
      _mm256_store_si256(reinterpret_cast<__m256i*>(lane), sums);
      for (size_t r = 0; r < kScanGroupRows; ++r) {
        lane[r] += Sq8BlockDotScalar(qc + j, rows[r] + j, j1 - j);
      }
      sums = _mm256_load_si256(reinterpret_cast<const __m256i*>(lane));
    }
    total_lo = _mm256_add_pd(
        total_lo, _mm256_cvtepi32_pd(_mm256_castsi256_si128(sums)));
    total_hi = _mm256_add_pd(
        total_hi, _mm256_cvtepi32_pd(_mm256_extracti128_si256(sums, 1)));
  }
  const __m256d qs = _mm256_set1_pd(qscale);
  const __m256d scale_lo =
      _mm256_mul_pd(qs, _mm256_cvtps_pd(_mm_loadu_ps(vscales)));
  const __m256d scale_hi =
      _mm256_mul_pd(qs, _mm256_cvtps_pd(_mm_loadu_ps(vscales + 4)));
  _mm_storeu_ps(out, _mm256_cvtpd_ps(_mm256_mul_pd(scale_lo, total_lo)));
  _mm_storeu_ps(out + 4, _mm256_cvtpd_ps(_mm256_mul_pd(scale_hi, total_hi)));
}

/// ScanSlotsAvx2's body: slots [lo, hi), lo < hi, kScanGroupRows per pass.
__attribute__((target("avx2"))) void ScanSlotsAvx2Impl(
    const QueryCodes& query, const int8_t* codes, const float* scales,
    size_t dim, const RowRanges& row_ranges, size_t lo, size_t hi,
    float* out) {
  const double qscale = static_cast<double>(query.scale);
  RowCursor cursor(row_ranges, lo);
  const int8_t* rows[kScanGroupRows];
  float vscales[kScanGroupRows];
  for (size_t slot = lo; slot < hi; slot += kScanGroupRows) {
    const size_t m = std::min(kScanGroupRows, hi - slot);
    for (size_t r = 0; r < kScanGroupRows; ++r) {
      if (r < m) {
        const uint32_t row = cursor.Next();
        rows[r] = codes + size_t{row} * dim;
        vscales[r] = scales[row];
      } else {  // short last group: repeat its last row
        rows[r] = rows[m - 1];
        vscales[r] = vscales[m - 1];
      }
    }
    float group_out[kScanGroupRows];
    float* dst = m == kScanGroupRows ? out + slot : group_out;
    ScanGroupAvx2(query.codes.data(), rows, vscales, dim, qscale, dst);
    if (dst == group_out) std::copy(group_out, group_out + m, out + slot);
  }
}

#endif  // GARCIA_KERNELS_X86

}  // namespace

void EncodeRow(const float* row, size_t dim, int8_t* codes, float* scale) {
  float maxabs = 0.0f;
  for (size_t j = 0; j < dim; ++j) maxabs = std::max(maxabs, std::fabs(row[j]));
  if (maxabs == 0.0f) {
    std::fill(codes, codes + dim, int8_t{0});
    *scale = 0.0f;
    return;
  }
  const float s = maxabs / static_cast<float>(kCodeMax);
  const double inv = 1.0 / static_cast<double>(s);
  for (size_t j = 0; j < dim; ++j) {
    const long c = std::lround(static_cast<double>(row[j]) * inv);
    codes[j] = static_cast<int8_t>(
        std::clamp<long>(c, -kCodeMax, kCodeMax));
  }
  *scale = s;
}

QueryCodes QuantizeQuery(const float* query, size_t dim) {
  QueryCodes out;
  out.codes.resize(dim);
  float maxabs = 0.0f;
  for (size_t j = 0; j < dim; ++j) {
    maxabs = std::max(maxabs, std::fabs(query[j]));
  }
  if (maxabs == 0.0f) return out;  // scale 0, all-zero codes
  out.scale = maxabs / static_cast<float>(kQueryCodeMax);
  const double inv = 1.0 / static_cast<double>(out.scale);
  for (size_t j = 0; j < dim; ++j) {
    const long c = std::lround(static_cast<double>(query[j]) * inv);
    const long clamped = std::clamp<long>(c, -kQueryCodeMax, kQueryCodeMax);
    out.codes[j] = static_cast<int16_t>(clamped);
    out.abs_code_sum += static_cast<uint64_t>(std::labs(clamped));
  }
  return out;
}

double QueryCodes::ErrorBandPerUnitScale(size_t dim) const {
  // s_v * Q bounds |exact - approx| in real arithmetic (kernels.h); the
  // 1.001 factor absorbs every floating-point rounding the two score
  // expressions and the scale divisions can contribute (those are at the
  // 2^-24 relative level, five orders of magnitude below the slack).
  const double q = static_cast<double>(scale) *
                   (0.5 * static_cast<double>(abs_code_sum) +
                    63.75 * static_cast<double>(dim));
  return q * 1.001;
}

namespace internal {

void ScanSlotsScalar(const QueryCodes& query, const int8_t* codes,
                     const float* scales, size_t dim,
                     const RowRanges& row_ranges, size_t lo, size_t hi,
                     float* out) {
  if (lo >= hi) return;
  const double qscale = static_cast<double>(query.scale);
  RowCursor cursor(row_ranges, lo);
  for (size_t slot = lo; slot < hi; ++slot) {
    const uint32_t row = cursor.Next();
    out[slot] = Sq8DotOne(query.codes.data(), codes + size_t{row} * dim, dim,
                          qscale, scales[row]);
  }
}

void ScanSlotsAvx2(const QueryCodes& query, const int8_t* codes,
                   const float* scales, size_t dim,
                   const RowRanges& row_ranges, size_t lo, size_t hi,
                   float* out) {
#if defined(GARCIA_KERNELS_X86)
  if (lo < hi) {
    ScanSlotsAvx2Impl(query, codes, scales, dim, row_ranges, lo, hi, out);
  }
#else
  ScanSlotsScalar(query, codes, scales, dim, row_ranges, lo, hi, out);
#endif
}

}  // namespace internal

void ScanDots(const QueryCodes& query, const int8_t* codes,
              const float* scales, size_t dim, const RowRanges& row_ranges,
              float* out) {
  GARCIA_CHECK_EQ(query.codes.size(), dim);
  size_t total = 0;
  for (const auto& [first, second] : row_ranges) {
    GARCIA_CHECK_LE(first, second);
    total += second - first;
  }
  if (total == 0) return;
  const auto scan = kernels::internal::HasAvx2() ? &internal::ScanSlotsAvx2
                                                 : &internal::ScanSlotsScalar;
  scan(query, codes, scales, dim, row_ranges, 0, total, out);
}

}  // namespace sq8

}  // namespace kernels
}  // namespace garcia::core
