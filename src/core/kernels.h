// Copyright (c) 2026 GARCIA reproduction authors.
// Kernel execution layer.
//
// Every hot compute loop of the training/serving stack — the packed
// cache-blocked GEMM, the elementwise activations, row gather and its
// scatter-add adjoint, the segment reductions behind graph aggregation, the
// softmax cross-entropy inside InfoNCE, and the serving scans — is a kernel
// in this file.
//
// Every kernel is one serial loop and takes no execution context. Training
// is serial by construction: sharding Gemm's tile grid across a thread pool
// was measured end to end on the full-graph Fit and bought nothing
// (EXPERIMENTS.md, "Which kernels shard"), so it was removed. The serving
// scans (TopKDot, sq8::ScanDots) run one request each, because serving
// parallelizes across requests (serving::BatchRanker).
//
// Determinism contract: Gemm is bit-identical to the naive triple loop for
// every blocking and transpose flag, not merely close: it accumulates every
// output element in ascending k (asserted by tests/core_gemm_test.cc).
// Every other kernel fixes its accumulation order in its doc comment.
//
// How to add a kernel: write the serial loop, with a test against a plain
// loop in core_kernels_test. If an end-to-end number (the perfbench
// lifecycle benchmark) later shows that training needs concurrency, add it
// as fork-join across independent model pieces (the head and tail
// encoders, the contrastive terms), not as a context threaded through the
// kernels.

#ifndef GARCIA_CORE_KERNELS_H_
#define GARCIA_CORE_KERNELS_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/matrix.h"

namespace garcia::core {

/// An empty tag, kept only because perfbench/lifecycle_bench.cc passes
/// SerialExecution() to IvfIndex::Query's forwarding overload. Nothing in
/// the library reads it; delete both with that overload at the next
/// benchmark change.
struct ExecutionContext {};

inline const ExecutionContext& SerialExecution() {
  static const ExecutionContext serial;
  return serial;
}

namespace kernels {

// ----- GEMM -----

/// C = alpha * op(A) @ op(B) + beta * C (row-major, packed and
/// cache-blocked, serial). For each NC-column panel and each KC-deep k
/// panel in ascending order, the op(B) panel is packed once, then every
/// MC-row block packs its op(A) panel and runs register-tiled
/// micro-kernels. Both operands are packed straight from their strided
/// sources (transposed operands are never materialized whole). Every output
/// element accumulates in ascending-k order from fl(alpha * a) * b terms,
/// so the result is bit-identical to the naive triple loop for every
/// transpose flag and blocking (tests/core_gemm_test.cc). IEEE non-finite
/// values propagate: zero operands are not special-cased, so a 0 * Inf
/// term poisons its output element with NaN exactly as the naive reference
/// does. (Exactly-NaN outputs match the reference as a class, not bit for
/// bit — IEEE-754 leaves NaN sign/payload selection to the implementation,
/// so separately compiled code may keep a different NaN.)
void Gemm(bool trans_a, bool trans_b, float alpha, const Matrix& a,
          const Matrix& b, float beta, Matrix* c);

/// Gemm's blocking and micro-kernels, visible so tests can drive the
/// multi-block, multi-panel and padding paths at small shapes and check each
/// micro-kernel against the reference directly. Not a knob: Gemm always
/// runs kGemmBlocking and dispatches its micro-kernels on the host.
namespace internal {

struct GemmBlocking {
  /// Row-block height MC of a packed A block. An MC x KC A block should
  /// fit L2 alongside the KC x NR B micro-panels streaming through L1.
  size_t mc;
  /// K-panel depth KC shared by the packed A block and B panel.
  size_t kc;
  /// Column-panel width NC of a packed B panel.
  size_t nc;
};

/// The blocking Gemm runs with.
inline constexpr GemmBlocking kGemmBlocking = {
    /*mc=*/64,
    /*kc=*/256,
    /*nc=*/256,
};

/// True when the host supports AVX2 (always false off x86).
bool HasAvx2();

/// Which micro-kernels GemmBlocked runs. kDispatch is Gemm's: the AVX2
/// micro-kernel on AVX2 hosts and the single-column path for one-column
/// panels. kScalar runs GemmMicroKernel on every tile, so benchmarks can
/// time the portable path on any host. Both give the same bits.
enum class GemmKernels { kDispatch, kScalar };

/// Gemm under an explicit blocking; bit-identical to Gemm for any blocking.
void GemmBlocked(const GemmBlocking& blocking, bool trans_a, bool trans_b,
                 float alpha, const Matrix& a, const Matrix& b, float beta,
                 Matrix* c, GemmKernels kernels = GemmKernels::kDispatch);

/// The register tile: a packed op(A) panel holds kGemmMr rows and a packed
/// op(B) panel kGemmNr columns, each kc deep, element (l, r) of a panel at
/// [l * kGemmMr + r] (A, already scaled by alpha) or [l * kGemmNr + r] (B),
/// zero-padded past the valid rows or columns.
inline constexpr size_t kGemmMr = 4;
inline constexpr size_t kGemmNr = 8;

/// The micro-kernel contract: for r < m_valid and j < n_valid,
///   c[r * ldc + j] += ap[l * kGemmMr + r] * bp[l * kGemmNr + j],
/// l = 0..kc-1 ascending, each product and sum rounded to float. Nothing
/// outside that m_valid x n_valid region of c is read or written. The
/// portable scalar loop.
void GemmMicroKernel(const float* ap, const float* bp, size_t kc, float* c,
                     size_t ldc, size_t m_valid, size_t n_valid);

/// Same contract on AVX2: one 8-lane accumulator per row, a separate
/// multiply and add per step (no FMA). A partial tile runs through a stack
/// tile so no load reaches past c's valid region. Requires HasAvx2(); off
/// x86 it is the scalar kernel.
void GemmMicroKernelAvx2(const float* ap, const float* bp, size_t kc,
                         float* c, size_t ldc, size_t m_valid,
                         size_t n_valid);

/// The micro-kernel contract for n_valid = 1 over m_valid rows at once:
/// ap holds ceil(m_valid / kGemmMr) packed A panels back to back (kc *
/// kGemmMr floats apart), and only column 0 of the packed B panel bp is
/// read. Each output row is one SSE lane, four rows to a vector, so the
/// seven zero columns of the B panel cost nothing.
void GemmSingleColumn(const float* ap, size_t m_valid, const float* bp,
                      size_t kc, float* c, size_t ldc);

}  // namespace internal

// ----- Elementwise activations -----

enum class UnaryOp { kRelu, kTanh, kLeakyRelu, kSigmoid };

/// y[i] = f(x[i]) for i < n. `slope` is the LeakyReLU negative slope
/// (ignored by the other ops). x may alias y.
void UnaryForward(UnaryOp op, float slope, const float* x, float* y,
                  size_t n);

/// dx[i] += dy[i] * f'(x[i]) for i < n, with f' evaluated from the cached
/// input x and output y (whichever the op needs).
void UnaryBackwardAdd(UnaryOp op, float slope, const float* x, const float* y,
                      const float* dy, float* dx, size_t n);

// ----- Row gather / scatter -----

/// out->row(i) = src.row(idx[i]). out must be idx.size() x src.cols().
void GatherRows(const Matrix& src, const std::vector<uint32_t>& idx,
                Matrix* out);

/// out->row(i) += src.row(idx[i]) (gather-accumulate; the backward of
/// SegmentSum).
void GatherAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                   Matrix* out);

/// accum->row(idx[e]) += src.row(e) for e in ascending source order (the
/// adjoint of GatherRows). Destinations may repeat.
void ScatterAddRows(const Matrix& src, const std::vector<uint32_t>& idx,
                    Matrix* accum);

// ----- Segment reductions -----

/// out->row(s) = Σ_{e: seg[e]==s} x.row(e), summed in ascending e. out must
/// be num_segments x x.cols(); it is zeroed first.
void SegmentSum(const Matrix& x, const std::vector<uint32_t>& seg,
                size_t num_segments, Matrix* out);

/// Per-segment max-stabilized softmax over Ex1 scores; segments may be
/// empty. out must be Ex1 and may alias scores.
void SegmentSoftmax(const Matrix& scores, const std::vector<uint32_t>& seg,
                    size_t num_segments, Matrix* out);

/// dscores[e] += alpha[e] * (dalpha[e] - Σ_{e' in seg(e)} dalpha[e']
/// alpha[e']). alpha is the forward output.
void SegmentSoftmaxBackwardAdd(const Matrix& alpha, const Matrix& dalpha,
                               const std::vector<uint32_t>& seg,
                               size_t num_segments, Matrix* dscores);

// ----- Row broadcast / row reduction -----

/// x->at(i, j) *= w(i, 0) (MulColBroadcast forward, and its dX with x=dY).
void ScaleRowsInPlace(Matrix* x, const Matrix& w);

/// out(i, 0) += Σ_j a(i, j) * b(i, j), accumulated in double per row
/// (MulColBroadcast's dW).
void RowDotAdd(const Matrix& a, const Matrix& b, Matrix* out);

// ----- L2 row normalization (InfoNCE forward) -----

/// out->row(i) = x.row(i) / max(||x.row(i)||, eps); rows with norm <= eps
/// map to zero rows. norms receives max(||row||, eps) for the backward.
void L2NormalizeRows(const Matrix& x, float eps, Matrix* out,
                     std::vector<float>* norms);

/// dx.row(i) += (dy.row(i) - <dy_i, y_i> y.row(i)) / norms[i]; rows whose
/// forward norm was <= eps receive zero gradient.
void L2NormalizeRowsBackwardAdd(const Matrix& y, const Matrix& dy,
                                const std::vector<float>& norms, float eps,
                                Matrix* dx);

// ----- Row softmax -----

/// In-place row softmax: each row max-stabilized, exponentiated with a
/// double running sum, then scaled by fl(1/sum).
void SoftmaxRows(Matrix* x);

/// dx.row(i) += y_i ⊙ (dy_i − <dy_i, y_i>), the softmax Jacobian action
/// with the row dot accumulated in double. y is the forward output.
void SoftmaxRowsBackwardAdd(const Matrix& y, const Matrix& dy, Matrix* dx);

// ----- Softmax cross-entropy (InfoNCE head) -----

/// In-place row softmax of *logits plus the summed loss
/// Σ_i [logsumexp(row_i) - row_i[targets[i]]], accumulated in double in
/// ascending row order.
double CrossEntropyForward(Matrix* logits,
                           const std::vector<uint32_t>& targets);

/// dlogits(i, j) += gout * softmax(i, j), minus gout at the target column.
void CrossEntropyBackwardAdd(const Matrix& softmax,
                             const std::vector<uint32_t>& targets, float gout,
                             Matrix* dlogits);

// ----- Top-K retrieval (the online serving hot loop) -----

/// The retrieval total order: higher score first, ties by ascending id.
/// Selection and sorting under a total order are unique, which is what
/// makes every scan of a catalog (the brute-force panel scan, the IVF
/// probe lists and re-rank, the full-sort oracle) agree byte for byte.
/// Scores must not be NaN.
inline bool RanksBefore(const std::pair<uint32_t, float>& a,
                        const std::pair<uint32_t, float>& b) {
  if (a.second != b.second) return a.second > b.second;
  return a.first < b.first;
}

/// The exact retrieval score: Σ_j (double)query[j] * (double)row[j],
/// accumulated from 0.0 in ascending j and cast to float once. TopKDot's
/// vector path reproduces this expression bit for bit; every other scorer
/// that must agree with it (the SQ8 re-rank, the TopKInnerProduct oracle)
/// calls it.
inline float DotRowDouble(const float* query, const float* row, size_t dim) {
  double dot = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    dot += static_cast<double>(query[j]) * row[j];
  }
  return static_cast<float>(dot);
}

class RowPanel;

/// The two scoring paths behind TopKDot, visible so tests can pin them to
/// DotRowDouble directly. Not a knob: TopKDot always dispatches on
/// HasAvx2().
namespace internal {

/// out[i - lo] = DotRowDouble(query, row i) for the rows i in [lo, hi) of a
/// panel; lo must be a multiple of RowPanel::kLanes and hi at most
/// panel.rows(). The portable scalar path, reading the panel layout.
void DotPanelScalar(const float* query, const RowPanel& panel, size_t lo,
                    size_t hi, float* out);

/// Same contract, 16 rows (two panel blocks) per pass: per column four
/// 4-float widening loads, four multiplies and four adds, with no
/// shuffles; a short last block is scored into a stack buffer and only
/// its real rows are stored. Requires HasAvx2(); off x86 it is the scalar
/// path.
void DotPanelAvx2(const float* query, const RowPanel& panel, size_t lo,
                  size_t hi, float* out);

}  // namespace internal

/// An immutable lane-major copy of a row-major matrix, packed once for the
/// serving scan: rows in blocks of kLanes, each block holding its dim
/// columns one after another, kLanes floats per column (row r of the block
/// at lane r), with zero padding rows after the last real row. One 8-float
/// load is then one column of eight rows, so the scan widens and multiplies
/// without transposing anything per query. The layout is private to the
/// kernels. Packing CHECKs that every value is finite and names the first
/// row that is not: TopKDot's total order needs non-NaN scores, and an
/// infinite coordinate times a zero query coordinate is NaN.
class RowPanel {
 public:
  /// Rows per block.
  static constexpr size_t kLanes = 8;

  RowPanel() = default;
  explicit RowPanel(const Matrix& rows);

  size_t rows() const { return rows_; }
  size_t dim() const { return dim_; }
  /// Resident bytes of the packed copy, padding rows included.
  size_t MemoryBytes() const { return data_.size() * sizeof(float); }

 private:
  friend void internal::DotPanelScalar(const float*, const RowPanel&, size_t,
                                       size_t, float*);
  friend void internal::DotPanelAvx2(const float*, const RowPanel&, size_t,
                                     size_t, float*);

  size_t rows_ = 0;
  size_t dim_ = 0;
  std::vector<float> data_;  // data_[(b * dim_ + j) * kLanes + r]
};

/// Top-k (row index, score) of score[i] = DotRowDouble(query, row i of the
/// matrix `panel` was packed from), sorted under RanksBefore: descending
/// score, ties by ascending index. k = 0 returns empty; k >= rows returns
/// the full ranking. One serial pass: rows are scored a fixed chunk at a
/// time into a stack buffer, then fed in ascending row order to a bounded
/// k-element heap. On AVX2 hosts the panel scorer (internal::DotPanelAvx2)
/// gives each double lane one row, which adds its columns in ascending
/// order from 0.0 with no FMA; a float x float product is exact in double,
/// so every score is DotRowDouble's bit for bit. This is the brute-force
/// serving scan and the IVF coarse probe; serving::TopKInnerProduct is its
/// independent full-sort oracle.
std::vector<std::pair<uint32_t, float>> TopKDot(const float* query,
                                                const RowPanel& panel,
                                                size_t k);

// ----- k-means assignment (the IVF build's coarse quantizer) -----
//
// One point's squared L2 distance to every centroid, for the serial Lloyd
// sweeps of serving::IvfIndex::Build. The centroids are packed once per
// sweep into a transposed double panel so that one AVX2 double lane owns
// one centroid, as one lane owns one row in internal::DotPanelAvx2. Each
// lane runs the scalar loop's subtract, multiply and add in ascending
// column order from 0.0, and no FMA contracts the multiply and add, so
// every distance is bit-identical to the scalar loop on every host.

/// Centroids scored per lane group. A panel's stride is the centroid count
/// rounded up to a multiple of this.
inline constexpr size_t kCentroidLanes = 16;

/// Packs `centroids` (one per row) into the panel SquaredL2Lanes reads:
/// (*panel)[j * stride + c] is centroid c's column j widened to double
/// (exact), stride = centroids.rows() rounded up to kCentroidLanes, and
/// the padding lanes are 0.0. Returns the stride.
size_t PackCentroidPanel(const Matrix& centroids, std::vector<double>* panel);

/// out[c] for every lane c in [0, stride) of a packed panel: the sum over
/// ascending j, from 0.0, of diff * diff with diff = (double)point[j] -
/// panel[j * stride + c]. `stride` must be a multiple of kCentroidLanes.
/// Dispatches on internal::HasAvx2(); both paths give the same bits.
void SquaredL2Lanes(const float* point, const double* panel, size_t dim,
                    size_t stride, double* out);

/// Index of the first minimum of values[0, n), n > 0: comparison is a
/// strict <, so a tie keeps the lowest index.
uint32_t ArgMinFirst(const double* values, size_t n);

/// The two paths behind SquaredL2Lanes, visible so tests can pin them to
/// a plain loop.
namespace internal {

/// The portable scalar path: one lane at a time.
void SquaredL2LanesScalar(const float* point, const double* panel,
                          size_t dim, size_t stride, double* out);

/// Same contract, 16 lanes per pass in four AVX2 accumulators. Requires
/// HasAvx2(); off x86 it is the scalar path.
void SquaredL2LanesAvx2(const float* point, const double* panel, size_t dim,
                        size_t stride, double* out);

}  // namespace internal

// ----- SQ8 scalar quantization (the IVF list-storage codec) -----
//
// Symmetric-range int8 codes with one float scale per row: row v maps to
// codes c_j = clamp(round(v_j / s), -127, 127) with s = max_j|v_j| / 127,
// so v_j ≈ s * c_j with |v_j - s * c_j| <= s/2 per coordinate (the -128
// slot is deliberately unused: a symmetric range keeps the bound uniform).
// Stored bytes drop 4x; the probe scan — the bandwidth-bound serving hot
// loop — reads int8 codes instead of float rows.
//
// The scan is ASYMMETRIC: the query stays at full precision at the API
// boundary and is quantized once per query to int16 (15-bit range, so the
// query-side rounding error is ~256x below the storage-side error). A
// score is then an exact INTEGER dot — int32-accumulated over fixed
// kDimBlock-coordinate blocks (64 * 32767 * 127 per quarter-block stays
// far under INT32_MAX), each block total widened to double at the block
// boundary — times the two scales. Integer accumulation is associative,
// so the unrolled multi-accumulator inner loop is exact and every backend
// agrees bit for bit.
//
// Error band (what makes exact re-rank a GUARANTEE, not a heuristic — see
// serving/ivf_index.h): with q' = qscale * qcodes the dequantized query,
//   |exact_dot(q, v) - approx(q, v)|
//     <= |dot(q - q', v)| + |dot(q', v - v')|
//     <= s_v * qscale * (0.5 * Σ|qcodes_j| + 63.75 * dim)  =  s_v * Q(q)
// (63.75 = 127.5 / 2: a true coordinate reaches s_v * 127.5, half a step
// past the top code, and the query-side rounding is qscale / 2 per
// coordinate). Q(q) = QueryCodes::ErrorBandPerUnitScale(dim) is one
// per-query constant and s_v is the row's scale. Any candidate whose
// approx score is more than 2 * max(s_v) * Q(q) below the R-th best
// approx score provably cannot enter the exact top-k (R >= k).
// Floating-point rounding of the score expressions themselves cannot
// breach the band: |approx| <= 127 * qscale * s_v * Σ|qcodes| is at most
// 254x the band's first term, so every half-ulp rounding is <= ~8e-6 of
// the band — absorbed by the band's 0.1% inflation with 100x to spare.
namespace sq8 {

/// Coordinates per int32 accumulation block. 256 products of
/// |int16| <= 32767 by |int8| <= 127 peak at ~2^30 — half of INT32_MAX.
inline constexpr size_t kDimBlock = 256;
/// Symmetric code ranges (the -128 / -32768 slots are unused).
inline constexpr int kCodeMax = 127;
inline constexpr int kQueryCodeMax = 32767;

/// One row encoded: codes[0..dim) and *scale as described above. A zero
/// row gets scale 0 and all-zero codes (dequantizes exactly).
void EncodeRow(const float* row, size_t dim, int8_t* codes, float* scale);

/// A query quantized for the asymmetric scan.
struct QueryCodes {
  std::vector<int16_t> codes;
  float scale = 0.0f;       // dequantized query: q'_j = scale * codes[j]
  uint64_t abs_code_sum = 0;  // Σ|codes[j]|

  /// Q(q): |exact - approx| <= row_scale * Q(q) (see the namespace
  /// comment). Includes a 0.1% inflation so floating-point rounding of
  /// the two score expressions themselves can never breach the bound.
  double ErrorBandPerUnitScale(size_t dim) const;
};

QueryCodes QuantizeQuery(const float* query, size_t dim);

/// Half-open row ranges [first, second) of a scan, in output order.
using RowRanges = std::vector<std::pair<uint32_t, uint32_t>>;

/// Asymmetric scan: out[slot] = fl((qscale * scales[row]) * total) for the
/// slots covering `row_ranges` in order (slot 0 = ranges[0].first, ...,
/// concatenated), where total is the integer dot summed in int32 per
/// kDimBlock block and in double across blocks, from 0.0. `codes` /
/// `scales` hold ALL rows (row r at codes + r * dim); ranges select which
/// rows are scanned, in what output order. One serial pass. On AVX2 hosts
/// it scores eight consecutive slots per pass, even across range
/// boundaries: one vpmaddwd int32 accumulator per row, one transposed
/// horizontal reduction per group and block, and the widening and scaling
/// in double lanes. Integer addition is associative and the double
/// operations are the scalar ones in the scalar order, with no FMA, so
/// both paths give the same bits.
void ScanDots(const QueryCodes& query, const int8_t* codes,
              const float* scales, size_t dim, const RowRanges& row_ranges,
              float* out);

/// The two paths behind ScanDots, visible so tests can pin them to a
/// scalar integer model. Each scores slots [lo, hi) of the concatenated
/// ranges into out[lo, hi); hi must not exceed the total slot count.
namespace internal {

/// The portable scalar path: one row at a time.
void ScanSlotsScalar(const QueryCodes& query, const int8_t* codes,
                     const float* scales, size_t dim,
                     const RowRanges& row_ranges, size_t lo, size_t hi,
                     float* out);

/// Same contract, eight rows per pass; a short last group repeats its
/// last row and stores only its own slots. Requires
/// kernels::internal::HasAvx2(); off x86 it is the scalar path.
void ScanSlotsAvx2(const QueryCodes& query, const int8_t* codes,
                   const float* scales, size_t dim,
                   const RowRanges& row_ranges, size_t lo, size_t hi,
                   float* out);

}  // namespace internal

}  // namespace sq8

}  // namespace kernels
}  // namespace garcia::core

#endif  // GARCIA_CORE_KERNELS_H_
