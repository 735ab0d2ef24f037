// Kernel thread sweep: times GEMM (all four transpose variants, at
// GARCIA-shaped sizes) at 1, 2, 4 and hardware_concurrency threads and
// prints a JSON speedup table (serial wall-clock / threaded wall-clock) to
// stdout. Speedups are hardware-dependent: on a multi-core box GEMM at
// 512^3 should clear 2x at 4 threads; a single-core container reports ~1x
// and the serial wall-clock column is the meaningful axis.
// GARCIA_BENCH_REPEATS overrides the median-of-5 repeat count (the ASan
// smoke in scripts/check.sh uses 1). The table's `topk_dot` rows time
// kernels::TopKDot, the serving scan, over a packed kernels::RowPanel
// (20000 x 32, k = 10; and 20003 x 33 for a column tail and a short last
// panel block; `pack_seconds` is the one-off pack, outside the scan
// timer) against a plain reference (DotRowDouble per row, then a partial
// sort; `scalar_seconds`); the tool exits 1 if the ranking differs from
// the reference in any byte. The
// `kmeans_assign` rows time one k-means assignment pass of the IVF build
// (every point against 141 centroids, at 20000 x 32 and 20003 x 33)
// through the lane-per-centroid kernel against the scalar per-centroid
// loop, and the tool exits 1 if any nearest id or distance differs in any
// byte. The `sq8_scan` rows time the SQ8 IVF probe scan (sq8::ScanDots,
// serial, 35 of 141 lists of a 20000 x 32 catalog; and 5 of 7 lists of
// 700 x 280 for the column and row tails) against a per-row scalar
// reference loop; the tool exits 1 if any score differs in any bit. The
// `gemm_garcia` rows time GARCIA's three Eq. 2 attention-logit GEMMs at
// E = 11,872 edges (forward E x 69 . 69 x 1, weight gradient 69 x E .
// E x 1, input gradient E x 1 . 1 x 69) serially through Gemm's dispatched
// kernels (`seconds`) and through the scalar micro-kernel alone
// (`scalar_seconds`), and the tool exits 1 if either result differs in any
// bit from a naive triple loop. The `crc32` row reports Crc32's slice-by-8
// throughput over a 16 MiB buffer (one GCK1 checkpoint generation) beside
// a byte-at-a-time table loop, and the `adam_step` row one Adam update of
// 2M floats through the AVX2 and scalar bodies; the tool exits 1 if the
// CRCs, or the updated weights and moments, differ.
//
// Usage: micro_kernels [--speedup_json]; the sweep is the only mode.
// Whole-lifecycle performance (Fit, export, serving) is measured by
// perfbench/.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/crc32.h"
#include "core/kernels.h"
#include "core/matrix.h"
#include "core/rng.h"
#include "core/string_util.h"
#include "nn/optimizer.h"

namespace garcia {
namespace {

/// Thread counts for the sweep: {1, 2, 4, hw}, deduped.
std::vector<size_t> SweepThreadCounts() {
  std::vector<size_t> counts = {1, 2, 4};
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());
  if (std::find(counts.begin(), counts.end(), hw) == counts.end()) {
    counts.push_back(hw);
  }
  return counts;
}

/// The served embedding width (the TrainConfig::embedding_dim default).
constexpr size_t kServeDim = 32;

/// Repeat count for the chrono sweeps (median-of-N). GARCIA_BENCH_REPEATS
/// overrides the default 5; the ASan smoke lane sets it to 1.
int BenchRepeats() {
  const char* env = std::getenv("GARCIA_BENCH_REPEATS");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v > 0) return static_cast<int>(v);
  }
  return 5;
}

/// Median-of-repeats wall-clock seconds of fn() (one warmup call first).
template <typename Fn>
double TimeMedianSeconds(int repeats, Fn fn) {
  fn();  // warmup
  std::vector<double> secs;
  secs.reserve(repeats);
  for (int r = 0; r < repeats; ++r) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    secs.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
  }
  std::sort(secs.begin(), secs.end());
  return secs[secs.size() / 2];
}

struct SweepEntry {
  size_t threads;
  double seconds;
};

std::string SweepJsonLine(const char* kernel, const std::string& shape,
                          const std::vector<SweepEntry>& entries, bool last) {
  std::string line = core::StrFormat(
      "    {\"kernel\": \"%s\", \"shape\": \"%s\", \"sweep\": [", kernel,
      shape.c_str());
  const double serial_secs = entries.front().seconds;
  for (size_t i = 0; i < entries.size(); ++i) {
    line += core::StrFormat(
        "%s{\"threads\": %zu, \"seconds\": %.6f, \"speedup\": %.2f}",
        i == 0 ? "" : ", ", entries[i].threads, entries[i].seconds,
        serial_secs / entries[i].seconds);
  }
  line += core::StrFormat("]}%s\n", last ? "" : ",");
  return line;
}

/// Thread sweep of one GEMM variant: C(m x n) = op(A) @ op(B) with k as the
/// contracted dimension. Operand matrices are allocated in their stored
/// (pre-op) orientation.
std::string GemmSweepLine(const char* kernel, size_t m, size_t k, size_t n,
                          bool trans_a, bool trans_b,
                          const std::vector<size_t>& counts, int repeats,
                          core::Rng* rng, bool last) {
  core::Matrix a = trans_a ? core::Matrix::Randn(k, m, rng)
                           : core::Matrix::Randn(m, k, rng);
  core::Matrix b = trans_b ? core::Matrix::Randn(n, k, rng)
                           : core::Matrix::Randn(k, n, rng);
  core::Matrix c(m, n);
  std::vector<SweepEntry> entries;
  for (size_t t : counts) {
    core::ExecutionContext ctx(t);
    entries.push_back({t, TimeMedianSeconds(repeats, [&] {
                         core::kernels::Gemm(ctx, trans_a, trans_b, 1.0f, a,
                                             b, 0.0f, &c);
                       })});
  }
  const std::string shape = core::StrFormat("%zux%zux%zu", m, k, n);
  return SweepJsonLine(kernel, shape, entries, last);
}

/// One `topk_dot` row: TopKDot over a services x dim catalog packed into a
/// RowPanel (the serving scan), timed against a plain reference:
/// DotRowDouble per row, then a partial sort under the same order. The
/// panel is packed outside the scan timer, and the pack is timed on its
/// own. Clears *identical if the top-k list differs from the reference in
/// any byte.
std::string TopKDotLine(size_t services, size_t dim, size_t k, int repeats,
                        core::Rng* rng, bool last, bool* identical) {
  core::Matrix cands = core::Matrix::Randn(services, dim, rng);
  core::Matrix query = core::Matrix::Randn(1, dim, rng);
  std::vector<std::pair<uint32_t, float>> fast, reference;
  core::kernels::RowPanel panel;
  const double pack_secs = TimeMedianSeconds(
      repeats, [&] { panel = core::kernels::RowPanel(cands); });
  const double fast_secs = TimeMedianSeconds(
      repeats, [&] { fast = core::kernels::TopKDot(query.row(0), panel, k); });
  const double scalar_secs = TimeMedianSeconds(repeats, [&] {
    reference.resize(services);
    for (size_t i = 0; i < services; ++i) {
      reference[i] = {static_cast<uint32_t>(i),
                      core::kernels::DotRowDouble(query.row(0), cands.row(i),
                                                  dim)};
    }
    std::partial_sort(reference.begin(), reference.begin() + k,
                      reference.end(), core::kernels::RanksBefore);
    reference.resize(k);
  });
  const bool same = fast.size() == reference.size() &&
                    std::memcmp(fast.data(), reference.data(),
                                fast.size() * sizeof(fast[0])) == 0;
  if (!same) *identical = false;
  return core::StrFormat(
      "    {\"kernel\": \"topk_dot\", \"shape\": \"%zux%zu/k%zu\", "
      "\"threads\": 1, \"avx2\": %s, \"scalar_seconds\": %.6f, "
      "\"seconds\": %.6f, \"speedup\": %.2f, \"pack_seconds\": %.6f, "
      "\"bit_identical\": %s}%s\n",
      services, dim, k,
      core::kernels::internal::HasAvx2() ? "true" : "false", scalar_secs,
      fast_secs, scalar_secs / fast_secs, pack_secs, same ? "true" : "false",
      last ? "" : ",");
}

/// One `kmeans_assign` row: every point of a points x dim catalog assigned
/// to its nearest of `centroids` catalog rows, timed through the packed
/// lane kernel (kernels::SquaredL2Lanes + ArgMinFirst, the IVF build's
/// path) against one scalar double loop per (point, centroid). Clears
/// *identical if a nearest id or its distance differs in any byte.
std::string KmeansAssignLine(size_t points, size_t dim, size_t centroids,
                             int repeats, core::Rng* rng, bool last,
                             bool* identical) {
  const core::Matrix catalog = core::Matrix::Randn(points, dim, rng);
  core::Matrix cents(centroids, dim);
  const std::vector<size_t> init =
      rng->SampleWithoutReplacement(points, centroids);
  for (size_t c = 0; c < centroids; ++c) cents.CopyRowFrom(catalog, init[c], c);
  std::vector<uint32_t> fast_id(points), ref_id(points);
  std::vector<double> fast_dist(points), ref_dist(points);
  const double fast_secs = TimeMedianSeconds(repeats, [&] {
    std::vector<double> panel;
    std::vector<double> dist(core::kernels::PackCentroidPanel(cents, &panel));
    for (size_t i = 0; i < points; ++i) {
      core::kernels::SquaredL2Lanes(catalog.row(i), panel.data(), dim,
                                    dist.size(), dist.data());
      fast_id[i] = core::kernels::ArgMinFirst(dist.data(), centroids);
      fast_dist[i] = dist[fast_id[i]];
    }
  });
  const double scalar_secs = TimeMedianSeconds(repeats, [&] {
    for (size_t i = 0; i < points; ++i) {
      const float* p = catalog.row(i);
      for (size_t c = 0; c < centroids; ++c) {
        const float* q = cents.row(c);
        double d = 0.0;
        for (size_t j = 0; j < dim; ++j) {
          const double diff = static_cast<double>(p[j]) - q[j];
          d += diff * diff;
        }
        if (c == 0 || d < ref_dist[i]) {
          ref_dist[i] = d;
          ref_id[i] = static_cast<uint32_t>(c);
        }
      }
    }
  });
  const bool same =
      fast_id == ref_id &&
      std::memcmp(fast_dist.data(), ref_dist.data(),
                  points * sizeof(double)) == 0;
  if (!same) *identical = false;
  return core::StrFormat(
      "    {\"kernel\": \"kmeans_assign\", \"shape\": \"%zux%zu/c%zu\", "
      "\"threads\": 1, \"avx2\": %s, \"scalar_seconds\": %.6f, "
      "\"seconds\": %.6f, \"speedup\": %.2f, \"bit_identical\": %s}%s\n",
      points, dim, centroids,
      core::kernels::internal::HasAvx2() ? "true" : "false", scalar_secs,
      fast_secs, scalar_secs / fast_secs, same ? "true" : "false",
      last ? "" : ",");
}

/// One `sq8_scan` row: a rows x dim catalog SQ8-encoded and cut into
/// `lists` contiguous lists, of which `probed` are scanned in a random
/// order (as an IVF query scans its probed lists), `calls` times per
/// repeat. Times serial sq8::ScanDots against a per-row reference loop:
/// the integer dot in int32 per kDimBlock block, widened to double at
/// each block boundary, then scaled. Clears *identical if any score
/// differs in any bit.
std::string Sq8ScanLine(size_t rows, size_t dim, size_t lists, size_t probed,
                        size_t calls, int repeats, core::Rng* rng, bool last,
                        bool* identical) {
  namespace sq8 = core::kernels::sq8;
  const core::Matrix catalog = core::Matrix::Randn(rows, dim, rng);
  std::vector<int8_t> codes(rows * dim);
  std::vector<float> scales(rows);
  for (size_t r = 0; r < rows; ++r) {
    sq8::EncodeRow(catalog.row(r), dim, codes.data() + r * dim, &scales[r]);
  }
  sq8::RowRanges ranges;
  size_t total = 0;
  for (size_t l : rng->SampleWithoutReplacement(lists, probed)) {
    ranges.emplace_back(static_cast<uint32_t>(l * rows / lists),
                        static_cast<uint32_t>((l + 1) * rows / lists));
    total += ranges.back().second - ranges.back().first;
  }
  const core::Matrix query = core::Matrix::Randn(1, dim, rng);
  const sq8::QueryCodes qc = sq8::QuantizeQuery(query.row(0), dim);
  std::vector<float> fast(total), reference(total);
  const double fast_secs = TimeMedianSeconds(repeats, [&] {
    for (size_t c = 0; c < calls; ++c) {
      sq8::ScanDots(qc, codes.data(), scales.data(), dim, ranges,
                    fast.data());
    }
  });
  const double scalar_secs = TimeMedianSeconds(repeats, [&] {
    for (size_t c = 0; c < calls; ++c) {
      size_t slot = 0;
      for (const auto& [begin, end] : ranges) {
        for (uint32_t r = begin; r < end; ++r, ++slot) {
          const int8_t* row = codes.data() + size_t{r} * dim;
          double sum = 0.0;
          for (size_t j0 = 0; j0 < dim; j0 += sq8::kDimBlock) {
            int32_t acc = 0;
            for (size_t j = j0; j < std::min(dim, j0 + sq8::kDimBlock); ++j) {
              acc += static_cast<int32_t>(qc.codes[j]) * row[j];
            }
            sum += static_cast<double>(acc);
          }
          reference[slot] = static_cast<float>(
              static_cast<double>(qc.scale) *
              static_cast<double>(scales[r]) * sum);
        }
      }
    }
  });
  const bool same = std::memcmp(fast.data(), reference.data(),
                                total * sizeof(float)) == 0;
  if (!same) *identical = false;
  return core::StrFormat(
      "    {\"kernel\": \"sq8_scan\", "
      "\"shape\": \"%zux%zu/%zu ranges/%zu rows\", \"threads\": 1, "
      "\"avx2\": %s, \"scalar_seconds\": %.6f, \"seconds\": %.6f, "
      "\"speedup\": %.2f, \"ns_per_row\": %.2f, \"bit_identical\": %s}%s\n",
      rows, dim, probed, total,
      core::kernels::internal::HasAvx2() ? "true" : "false", scalar_secs,
      fast_secs, scalar_secs / fast_secs,
      fast_secs * 1e9 / static_cast<double>(calls * total),
      same ? "true" : "false", last ? "" : ",");
}

/// One `gemm_garcia` row: C(m x n) = alpha * op(A) @ op(B) + beta * C,
/// serial, timed through Gemm (the dispatched AVX2 and single-column
/// kernels) and through GemmBlocked on the scalar micro-kernel alone, each
/// from the same C. Clears *identical if either result differs in any bit
/// from the naive triple loop: beta pre-scaling, then fl(alpha * a) * b
/// terms in ascending k.
std::string GemmGarciaLine(const char* what, size_t m, size_t k, size_t n,
                           bool trans_a, bool trans_b, float beta,
                           int repeats, core::Rng* rng, bool last,
                           bool* identical) {
  namespace ki = core::kernels::internal;
  const core::Matrix a = trans_a ? core::Matrix::Randn(k, m, rng)
                                 : core::Matrix::Randn(m, k, rng);
  const core::Matrix b = trans_b ? core::Matrix::Randn(n, k, rng)
                                 : core::Matrix::Randn(k, n, rng);
  const core::Matrix c_init = core::Matrix::Randn(m, n, rng);
  core::Matrix fast, scalar;
  const double fast_secs = TimeMedianSeconds(repeats, [&] {
    fast = c_init;
    core::kernels::Gemm(core::SerialExecution(), trans_a, trans_b, 1.0f, a,
                        b, beta, &fast);
  });
  const double scalar_secs = TimeMedianSeconds(repeats, [&] {
    scalar = c_init;
    ki::GemmBlocked(core::SerialExecution(), ki::kGemmBlocking, trans_a,
                    trans_b, 1.0f, a, b, beta, &scalar,
                    ki::GemmKernels::kScalar);
  });
  core::Matrix reference = c_init;
  if (beta == 0.0f) {
    reference.Fill(0.0f);
  } else if (beta != 1.0f) {
    reference.Scale(beta);
  }
  for (size_t i = 0; i < m; ++i) {
    for (size_t j = 0; j < n; ++j) {
      float acc = reference.at(i, j);
      for (size_t l = 0; l < k; ++l) {
        acc += (trans_a ? a.at(l, i) : a.at(i, l)) *
               (trans_b ? b.at(j, l) : b.at(l, j));
      }
      reference.at(i, j) = acc;
    }
  }
  const size_t bytes = reference.size() * sizeof(float);
  const bool same =
      std::memcmp(fast.data(), reference.data(), bytes) == 0 &&
      std::memcmp(scalar.data(), reference.data(), bytes) == 0;
  if (!same) *identical = false;
  return core::StrFormat(
      "    {\"kernel\": \"gemm_garcia\", \"shape\": \"%s %zux%zux%zu\", "
      "\"threads\": 1, \"avx2\": %s, \"scalar_seconds\": %.6f, "
      "\"seconds\": %.6f, \"speedup\": %.2f, \"bit_identical\": %s}%s\n",
      what, m, k, n, ki::HasAvx2() ? "true" : "false", scalar_secs,
      fast_secs, scalar_secs / fast_secs, same ? "true" : "false",
      last ? "" : ",");
}

/// The `crc32` row: Crc32 (slice-by-8) against a byte-at-a-time table
/// loop over `bytes` random bytes. Clears *identical if the CRCs differ.
std::string Crc32Line(size_t bytes, int repeats, core::Rng* rng, bool last,
                      bool* identical) {
  std::vector<unsigned char> buf(bytes);
  for (unsigned char& v : buf) {
    v = static_cast<unsigned char>(rng->UniformInt(256));
  }
  uint32_t table[256];
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    table[i] = c;
  }
  uint32_t fast = 0, reference = 0;
  const double fast_secs = TimeMedianSeconds(
      repeats, [&] { fast = core::Crc32(buf.data(), buf.size()); });
  const double bytewise_secs = TimeMedianSeconds(repeats, [&] {
    uint32_t c = 0xffffffffu;
    for (unsigned char v : buf) c = table[(c ^ v) & 0xffu] ^ (c >> 8);
    reference = c ^ 0xffffffffu;
  });
  const bool same = fast == reference;
  if (!same) *identical = false;
  const double mb = static_cast<double>(bytes) / 1e6;
  return core::StrFormat(
      "    {\"kernel\": \"crc32\", \"shape\": \"%zu bytes\", "
      "\"threads\": 1, \"bytewise_mb_per_s\": %.1f, "
      "\"mb_per_s\": %.1f, \"speedup\": %.2f, \"bit_identical\": %s}%s\n",
      bytes, mb / bytewise_secs, mb / fast_secs, bytewise_secs / fast_secs,
      same ? "true" : "false", last ? "" : ",");
}

/// The `adam_step` row: one Adam update of n floats through the AVX2 body
/// and through the scalar loop, each on its own copy of the same state.
/// Both copies take the same number of updates (warmup plus repeats), so
/// afterwards their weights and moments must match byte for byte; clears
/// *identical if not.
std::string AdamStepLine(size_t n, int repeats, core::Rng* rng, bool last,
                         bool* identical) {
  namespace ni = nn::internal;
  const bool avx2 = core::kernels::internal::HasAvx2();
  std::vector<float> g(n), w(n);
  for (size_t i = 0; i < n; ++i) {
    g[i] = static_cast<float>(rng->Normal());
    w[i] = static_cast<float>(rng->Normal());
  }
  const ni::AdamCoefficients k = {0.9f, 0.999f, 1e-8f, 0.01f, 1e-3f};
  std::vector<float> w_fast = w, m_fast(n, 0.0f), v_fast(n, 0.0f);
  std::vector<float> w_ref = w, m_ref(n, 0.0f), v_ref(n, 0.0f);
  const auto update = avx2 ? &ni::AdamUpdateAvx2 : &ni::AdamUpdateScalar;
  const double fast_secs = TimeMedianSeconds(repeats, [&] {
    update(k, g.data(), w_fast.data(), m_fast.data(), v_fast.data(), n);
  });
  const double scalar_secs = TimeMedianSeconds(repeats, [&] {
    ni::AdamUpdateScalar(k, g.data(), w_ref.data(), m_ref.data(),
                         v_ref.data(), n);
  });
  const size_t bytes = n * sizeof(float);
  const bool same = std::memcmp(w_fast.data(), w_ref.data(), bytes) == 0 &&
                    std::memcmp(m_fast.data(), m_ref.data(), bytes) == 0 &&
                    std::memcmp(v_fast.data(), v_ref.data(), bytes) == 0;
  if (!same) *identical = false;
  return core::StrFormat(
      "    {\"kernel\": \"adam_step\", \"shape\": \"%zu floats\", "
      "\"threads\": 1, \"avx2\": %s, \"scalar_seconds\": %.6f, "
      "\"seconds\": %.6f, \"speedup\": %.2f, \"bit_identical\": %s}%s\n",
      n, avx2 ? "true" : "false", scalar_secs, fast_secs,
      scalar_secs / fast_secs, same ? "true" : "false", last ? "" : ",");
}

int RunSpeedupJson() {
  const std::vector<size_t> counts = SweepThreadCounts();
  const int repeats = BenchRepeats();
  core::Rng rng(12);

  std::string json =
      core::StrFormat("{\n  \"hardware_concurrency\": %u,\n  \"results\": [\n",
                      std::thread::hardware_concurrency());

  // GEMM, all four transpose variants at GARCIA-shaped sizes:
  //   gemm_nn  512^3            — square forward-pass reference point; the
  //                               acceptance target (>= 2x at 4 threads on
  //                               multicore).
  //   gemm_nt  1024x64x1024     — InfoNCE logits A @ B^T (batch x batch from
  //                               d-dim embeddings).
  //   gemm_tn  64x32768x64      — backward dW = X^T @ dY: tiny output, huge
  //                               contracted k; parallelizes only via the
  //                               2-D tile grid.
  //   gemm_tt  512^3            — square with both operands strided.
  json += GemmSweepLine("gemm", 512, 512, 512, false, false, counts, repeats,
                        &rng, false);
  json += GemmSweepLine("gemm_nt", 1024, 64, 1024, false, true, counts,
                        repeats, &rng, false);
  json += GemmSweepLine("gemm_tn", 64, 32768, 64, true, false, counts,
                        repeats, &rng, false);
  json += GemmSweepLine("gemm_tt", 512, 512, 512, true, true, counts, repeats,
                        &rng, false);

  // The panel scan against the plain reference: at the serving shape, and
  // one row and one column past it so the vector path's column tail and a
  // short last panel block run too.
  bool topk_identical = true;
  json += TopKDotLine(20000, kServeDim, 10, repeats, &rng, false,
                      &topk_identical);
  json += TopKDotLine(20003, kServeDim + 1, 10, repeats, &rng, false,
                      &topk_identical);

  // One k-means assignment pass at the zipf_serve build's shape (141 =
  // round(sqrt(20000)) lists), and one row and one column past it.
  bool kmeans_identical = true;
  json += KmeansAssignLine(20000, kServeDim, 141, repeats, &rng, false,
                           &kmeans_identical);
  json += KmeansAssignLine(20003, kServeDim + 1, 141, repeats, &rng, false,
                           &kmeans_identical);

  // The SQ8 IVF probe scan at zipf_serve's query shape (35 of 141 lists,
  // ~4.9k rows), and an odd shape: 280 columns cross kDimBlock and leave a
  // column tail in the second block, and 500 rows leave a short last group.
  bool sq8_identical = true;
  json += Sq8ScanLine(20000, kServeDim, 141, 35, 100, repeats, &rng, false,
                      &sq8_identical);
  json += Sq8ScanLine(700, 280, 7, 5, 100, repeats, &rng, false,
                      &sq8_identical);

  // GARCIA's Eq. 2 attention-logit GEMMs over E edges of a 69-wide
  // [z_dst || z_src || e] input; the two n = 1 shapes run the
  // single-column path, the input gradient a k = 1 product.
  constexpr size_t kEdges = 11872, kAttIn = 69;
  bool gemm_garcia_identical = true;
  json += GemmGarciaLine("forward", kEdges, kAttIn, 1, false, false, 0.0f,
                         repeats, &rng, false, &gemm_garcia_identical);
  json += GemmGarciaLine("dW", kAttIn, kEdges, 1, true, false, 1.0f, repeats,
                         &rng, false, &gemm_garcia_identical);
  json += GemmGarciaLine("dX", kEdges, 1, kAttIn, false, true, 1.0f, repeats,
                         &rng, false, &gemm_garcia_identical);

  // Fit's other two vector loops: the CRC over one GCK1 generation's worth
  // of bytes, and one Adam update.
  bool crc_identical = true, adam_identical = true;
  json += Crc32Line(size_t{16} << 20, repeats, &rng, false, &crc_identical);
  json += AdamStepLine(size_t{2} << 20, repeats, &rng, true, &adam_identical);

  json += "  ]\n}\n";

  std::fputs(json.c_str(), stdout);
  if (!topk_identical) {
    std::fprintf(stderr,
                 "topk_dot: TopKDot diverged from the plain reference\n");
  }
  if (!kmeans_identical) {
    std::fprintf(stderr,
                 "kmeans_assign: the lane kernel diverged from the scalar "
                 "loop\n");
  }
  if (!sq8_identical) {
    std::fprintf(stderr,
                 "sq8_scan: ScanDots diverged from the per-row reference\n");
  }
  if (!gemm_garcia_identical) {
    std::fprintf(stderr,
                 "gemm_garcia: Gemm diverged from the naive triple loop\n");
  }
  if (!crc_identical) {
    std::fprintf(stderr, "crc32: slice-by-8 diverged from the byte loop\n");
  }
  if (!adam_identical) {
    std::fprintf(stderr,
                 "adam_step: the AVX2 body diverged from the scalar loop\n");
  }
  return topk_identical && kmeans_identical && sq8_identical &&
                 gemm_garcia_identical && crc_identical && adam_identical
             ? 0
             : 1;
}

}  // namespace
}  // namespace garcia

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--speedup_json") != 0) {
      std::fprintf(stderr, "usage: %s [--speedup_json]\n", argv[0]);
      return 2;
    }
  }
  return garcia::RunSpeedupJson();
}
