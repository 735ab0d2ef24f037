// Copyright (c) 2026 GARCIA reproduction authors.
// IVF-style clustered inner-product retrieval index (DESIGN.md §5k).
//
// Serving answered every request with core::kernels::TopKDot — a brute-force
// scan of the whole catalog. That is O(catalog) per request: fine at bench
// scale, hopeless at the ROADMAP's million-service north star. This file
// adds the standard sub-linear alternative: a coarse quantizer (seeded
// k-means over the exported service embeddings) partitions the catalog into
// nlist inverted lists; a query scores the nlist centroids, probes the
// nprobe best lists, and ranks the probed candidates under the same
// (score desc, id asc) total order TopKDot uses. Every query runs serially
// on its caller's thread; serving parallelizes across requests
// (BatchRanker), never inside one.
//
// The probe scan is bandwidth-bound on the stored list rows, so the lists
// are stored SQ8-quantized (DESIGN.md §5l): int8 codes with ONE float
// scale per row (core::kernels::sq8 — symmetric range,
// |v_j - s*c_j| <= s/2), ~4x below float32 rows. After the coarse probe
// ranks the centroids (kernels::TopKDot over a kernels::RowPanel of them,
// packed at Build and Load), a query runs these stages:
//   1. quantized scan: the asymmetric sq8::ScanDots kernel scores every
//      probed candidate into one buffer (int32 block accumulation, eight
//      rows per pass on AVX2 hosts);
//   2. cutoff: T = the rerank_k-th best approximate score, found with a
//      rerank_k-element heap over the buffer (no copy, no full
//      selection), and the cutoff T - 2B, where B = max_probed_scale *
//      Q(query) bounds |exact - approx| (kernels.h derivation);
//   3. survivor walk: one pass per probed range keeps every candidate at
//      or above the cutoff — the top rerank_k by approximate score plus
//      everything within the error band of the rerank_k-th;
//   4. exact re-rank: the survivors are re-scored with the exact float
//      expression against the ORIGINAL catalog rows and the top k
//      selected under the same (score desc, id asc) total order.
// The band extension turns the re-rank from a heuristic into a guarantee:
// any candidate below the cutoff provably ranks behind >= rerank_k >= k
// re-ranked candidates in EXACT score, so Query returns the exact top-k of
// the probed candidate set at every (nprobe, rerank_k >= k) — what an
// exact float scan of the same lists would return — and is byte-identical
// to brute force at full probe. Quantization costs memory traffic only,
// never recall. Exact re-rank reads the original catalog (the index keeps
// no float copy — that is where the 4x comes from): Build() auto-attaches
// the catalog it was given, Load() requires AttachRerankCatalog() before
// the first query. The caller owns the catalog and must keep it alive.
//
// Determinism contract (the same one every kernel in this repo keeps):
//   * Build is serial and deterministic. k-means runs a FIXED iteration
//     count; each point picks its nearest centroid with ties broken by
//     ascending centroid id, and each centroid averages its members in
//     ascending point id with double accumulation — so one catalog and
//     seed always build the same index byte for byte. The assignment
//     scores one centroid per AVX2 double lane with the scalar loop's
//     sub/mul/add order and no FMA, so it matches the scalar loop bitwise.
//   * Query is a pure function of the index and its arguments, so any
//     number of threads may probe one index at once and get the serial
//     answer. Re-ranked scores are double-accumulated dots cast to float —
//     the exact expression TopKDot evaluates — and selection under the
//     (score desc, id asc) TOTAL order is unique.
//   * At nprobe == nlist every candidate is probed, so the result is
//     BYTE-IDENTICAL to TopKDot over the same catalog: the brute-force
//     scan stays available as the recall oracle behind the
//     RetrievalConfig::mode knob (serving/ranking_service.h), and the
//     property harness (tests/serving_retrieval_test.cc) pins the
//     equivalence to the full-sort serving::TopKInnerProduct per seed,
//     catalog, K and rerank_k.
//
// Persistence: a "GIV2" core::SectionedFile container
// (core/sectioned_file.h, the codec GCK1 checkpoints use too) — magic +
// version header, one CRC-32 per section (meta, centroids, lists, codes,
// scales), published with core::WriteFileAtomic. Load decodes straight
// from the file buffer. A bit-flipped or truncated dump is rejected with
// the failing section named, and so is a dump whose CRCs hold but whose
// contents could break a query: non-finite centroids or scales, or an id
// table that is not a permutation of [0, n). The centroid panel is packed
// only after that check, so a hostile dump gets a Status, never the
// panel's finiteness CHECK. Serving then degrades to the
// brute-force scan (ResilientRanker counts the fallback in ServingHealth).
// The retired float-list "GIV1" container is rejected with a named error:
// indexes are rebuilt at every refresh, so nothing reads an old dump.

#ifndef GARCIA_SERVING_IVF_INDEX_H_
#define GARCIA_SERVING_IVF_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "core/matrix.h"
#include "core/status.h"
#include "serving/ranking_service.h"

namespace garcia::serving {

/// Inverted-file inner-product index over one embedding catalog snapshot.
/// Immutable after Build()/Load(): safe to share across any number of
/// serving threads (BatchRanker workers probe concurrently with no
/// synchronization).
class IvfIndex {
 public:
  /// Per-query instrumentation (ServingHealth feeds).
  struct QueryStats {
    size_t quantized_rows = 0;  // candidates scored by the int8 scan
    size_t rerank_rows = 0;     // candidates exactly re-scored
  };

  IvfIndex() = default;

  /// Clusters `catalog` (rows = service embeddings) into
  /// ResolveNlist(config.nlist, rows) lists with seeded k-means (fixed
  /// kKmeansIterations sweeps, init sampled from Rng(config.seed)), then
  /// lays every list out contiguously in one pass. Serial and
  /// deterministic (see header comment). Requires a non-empty catalog of
  /// finite values (a non-finite value is a fatal check naming its row).
  /// The lists are stored as SQ8 codes + per-row scales and `catalog` is
  /// attached as the re-rank source (caller keeps it alive);
  /// config.mode is not consulted.
  static IvfIndex Build(const core::Matrix& catalog,
                        const RetrievalConfig& config);

  /// Top-k of <query, catalog row> over the union of the `nprobe` probed
  /// lists, sorted (score desc, id asc). nprobe is clamped to [1, nlist];
  /// nprobe >= nlist is byte-identical to kernels::TopKDot. Always returns
  /// min(k, size()) results: when the nprobe-best lists hold fewer than
  /// min(k, size()) candidates (dead clusters), the probe prefix extends
  /// down the same centroid ranking until it has enough — probe sets stay
  /// nested in nprobe, so recall stays monotone. The two-stage
  /// scan+re-rank runs with ResolveRerankK(rerank_k, k) candidates (the
  /// header's band guarantee makes the result the same for every
  /// rerank_k). Serial on the calling thread.
  RankedList Query(const float* query, size_t k, size_t nprobe,
                   size_t rerank_k = 0, QueryStats* stats = nullptr) const;

  /// Same, probing the index's default_nprobe() and default_rerank_k().
  RankedList Query(const float* query, size_t k) const;

  /// Forwards to the serial Query; the context is ignored. Kept only so
  /// the lifecycle benchmark (perfbench/lifecycle_bench.cc), which passes
  /// core::SerialExecution(), builds unchanged. Delete it together with
  /// that argument at the next benchmark change.
  RankedList Query(const core::ExecutionContext& /*ignored*/,
                   const float* query, size_t k, size_t nprobe,
                   size_t rerank_k = 0, QueryStats* stats = nullptr) const {
    return Query(query, k, nprobe, rerank_k, stats);
  }

  size_t size() const { return ids_.size(); }     // catalog rows indexed
  size_t dim() const { return centroids_.cols(); }
  size_t nlist() const { return centroids_.rows(); }
  bool empty() const { return ids_.empty(); }

  /// The nprobe Query(query, k) uses: ResolveNprobe(config.nprobe, nlist)
  /// captured at build time (and serialized with the index).
  size_t default_nprobe() const { return default_nprobe_; }
  uint64_t seed() const { return seed_; }

  /// The raw config.rerank_k captured at build time (0 = auto); resolved
  /// against the request's k by ResolveRerankK at query time.
  size_t default_rerank_k() const { return default_rerank_k_; }

  /// Points the exact re-rank stage at the original catalog (row r of
  /// `catalog` must be the embedding of service id r used at Build time).
  /// Non-owning: `catalog` must outlive every Query. Required after
  /// Load(); Build() attaches its own argument.
  void AttachRerankCatalog(const core::Matrix& catalog);
  bool has_rerank_catalog() const { return catalog_ != nullptr; }

  /// Resident bytes of the stored list payload only: codes + scales, ~4x
  /// below float rows. The SQ8 headline memory number — excludes the
  /// shared centroids/offsets/ids.
  size_t ListStorageBytes() const;
  /// Total resident index bytes: centroids and their probe panel +
  /// offsets + ids + per-list scale bounds + ListStorageBytes(). Surfaced
  /// on the ServingHealth dashboard.
  size_t MemoryBytes() const;

  const core::Matrix& centroids() const { return centroids_; }
  /// Original catalog ids grouped by list, ascending id within each list;
  /// list l spans ids()[list_offsets()[l] .. list_offsets()[l + 1]).
  const std::vector<uint32_t>& ids() const { return ids_; }
  const std::vector<uint32_t>& list_offsets() const { return list_offsets_; }

  /// Sectioned "GIV2" container (see header comment), written atomically.
  core::Status Save(const std::string& path) const;
  /// Rejects wrong magic/version, truncation, trailing garbage, section
  /// CRC mismatches (naming the section), inconsistent layout claims,
  /// non-finite centroids or scales, and an id table that is not a
  /// permutation. A retired float "GIV1" dump is rejected with an error
  /// naming GIV1.
  static core::Result<IvfIndex> Load(const std::string& path);

  /// nlist == 0 resolves to round(sqrt(rows)), clamped to [1, rows].
  static size_t ResolveNlist(size_t nlist, size_t rows);
  /// nprobe == 0 resolves to max(1, nlist / 4); nonzero clamps to
  /// [1, nlist].
  static size_t ResolveNprobe(size_t nprobe, size_t nlist);
  /// rerank_k == 0 resolves to max(4k, 32); nonzero clamps up to k. The
  /// band guarantee makes every resolution return identical results —
  /// rerank_k only tunes how much exact re-scoring headroom is paid for
  /// up front before the band extension kicks in.
  static size_t ResolveRerankK(size_t rerank_k, size_t k);

  /// Fixed k-means sweep count: enough to converge the bench catalogs,
  /// constant so build cost and the result are seed-determined.
  static constexpr size_t kKmeansIterations = 10;
  /// Hard cap on an index file (refuses bogus multi-GiB artifacts).
  static constexpr uint64_t kMaxIndexBytes = 1ull << 34;  // 16 GiB

 private:
  RankedList QuerySq8(const float* query, size_t k, const RankedList& probes,
                      size_t rerank_k, QueryStats* stats) const;
  void RecomputeListScaleMax();

  core::Matrix centroids_;             // nlist x dim coarse quantizer
  core::kernels::RowPanel centroid_panel_;  // centroids_, packed to probe
  std::vector<uint32_t> list_offsets_; // nlist + 1 prefix offsets into ids_
  std::vector<uint32_t> ids_;          // original id of each stored row
  std::vector<int8_t> codes_;          // rows x dim SQ8 codes, by list
  std::vector<float> scales_;          // one scale per stored row
  std::vector<float> list_scale_max_;  // per-list max scale (band bound;
                                       // recomputed, never serialized)
  const core::Matrix* catalog_ = nullptr;  // non-owning re-rank source
  size_t default_nprobe_ = 1;
  size_t default_rerank_k_ = 0;        // raw config value; 0 = auto
  uint64_t seed_ = 0;
};

}  // namespace garcia::serving

#endif  // GARCIA_SERVING_IVF_INDEX_H_
