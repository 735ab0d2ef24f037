#include "serving/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string_view>

#include "core/fileio.h"
#include "core/kernels.h"
#include "core/macros.h"
#include "core/rng.h"
#include "core/sectioned_file.h"

namespace garcia::serving {

namespace {

using ScoredId = std::pair<uint32_t, float>;
// The retrieval total order and the exact dot are kernels::TopKDot's own
// (core/kernels.h), so index scores and rankings equal the brute-force
// scan's bitwise.
using core::kernels::DotRowDouble;
using core::kernels::RanksBefore;

// ------------------------------------------------------------ persistence

// GIV2: SQ8 lists in a core::SectionedFile container. The retired
// float-list GIV1 magic is recognized only to reject it by name.
constexpr const char* kSectionNames[] = {"meta", "centroids", "lists",
                                         "codes", "scales"};
constexpr core::SectionedFile kFormat{"GIV2", 1, kSectionNames};
constexpr char kMagicFloatRetired[] = "GIV1";

template <typename T>
std::string_view BytesOf(const T* data, size_t count) {
  return {reinterpret_cast<const char*>(data), count * sizeof(T)};
}

}  // namespace

// ------------------------------------------------------------- resolution

size_t IvfIndex::ResolveNlist(size_t nlist, size_t rows) {
  GARCIA_CHECK_GT(rows, 0u);
  if (nlist == 0) {
    nlist = static_cast<size_t>(std::lround(std::sqrt(
        static_cast<double>(rows))));
  }
  return std::min(std::max<size_t>(nlist, 1), rows);
}

size_t IvfIndex::ResolveNprobe(size_t nprobe, size_t nlist) {
  GARCIA_CHECK_GT(nlist, 0u);
  if (nprobe == 0) nprobe = nlist / 4;
  return std::min(std::max<size_t>(nprobe, 1), nlist);
}

size_t IvfIndex::ResolveRerankK(size_t rerank_k, size_t k) {
  if (rerank_k == 0) rerank_k = std::max<size_t>(4 * k, 32);
  return std::max(rerank_k, k);
}

// ------------------------------------------------------------------ build

IvfIndex IvfIndex::Build(const core::Matrix& catalog,
                         const RetrievalConfig& config) {
  const size_t n = catalog.rows();
  const size_t dim = catalog.cols();
  GARCIA_CHECK_GT(n, 0u);
  GARCIA_CHECK_GT(dim, 0u);
  // A non-finite value would poison its centroid, which Load rejects, and
  // reach sq8::EncodeRow's lround.
  for (size_t i = 0; i < n; ++i) {
    const float* row = catalog.row(i);
    for (size_t j = 0; j < dim; ++j) {
      GARCIA_CHECK(std::isfinite(row[j]))
          << "non-finite value in IVF build catalog (row " << i << ")";
    }
  }
  const size_t nlist = ResolveNlist(config.nlist, n);

  // Init: nlist distinct catalog rows drawn from the seed stream. The draw
  // is serial, so the starting centroids depend on the seed alone.
  IvfIndex index;
  index.seed_ = config.seed;
  index.default_nprobe_ = ResolveNprobe(config.nprobe, nlist);
  index.default_rerank_k_ = config.rerank_k;
  index.centroids_ = core::Matrix(nlist, dim);
  {
    core::Rng rng(config.seed);
    std::vector<size_t> init = rng.SampleWithoutReplacement(n, nlist);
    for (size_t c = 0; c < nlist; ++c) {
      index.centroids_.CopyRowFrom(catalog, init[c], c);
    }
  }

  // Assignment: each point picks its nearest centroid (the first minimum,
  // so ties break by ascending centroid id), scored against the centroids
  // packed once per pass into a transposed double panel.
  std::vector<uint32_t> assign(n, 0);
  std::vector<double> panel, dist;
  auto assign_all = [&] {
    dist.resize(core::kernels::PackCentroidPanel(index.centroids_, &panel));
    for (size_t i = 0; i < n; ++i) {
      core::kernels::SquaredL2Lanes(catalog.row(i), panel.data(), dim,
                                    dist.size(), dist.data());
      assign[i] = core::kernels::ArgMinFirst(dist.data(), nlist);
    }
  };

  // Lloyd sweeps, fixed count.
  std::vector<uint32_t> members(n);       // point ids, grouped by centroid
  std::vector<uint32_t> offsets(nlist + 1, 0);
  std::vector<double> sum(dim);
  for (size_t iter = 0; iter < kKmeansIterations; ++iter) {
    assign_all();
    // Counting sort of points by centroid: one serial O(n) pass building
    // each centroid's member list in ascending point id.
    std::fill(offsets.begin(), offsets.end(), 0u);
    for (size_t i = 0; i < n; ++i) ++offsets[assign[i] + 1];
    for (size_t c = 0; c < nlist; ++c) offsets[c + 1] += offsets[c];
    {
      std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
      for (size_t i = 0; i < n; ++i) {
        members[cursor[assign[i]]++] = static_cast<uint32_t>(i);
      }
    }
    // Update: each centroid averages its members (double accumulation,
    // ascending point id). An emptied centroid keeps its previous
    // position — deterministic, and a dead list simply never wins probes.
    for (size_t c = 0; c < nlist; ++c) {
      const size_t begin = offsets[c], end = offsets[c + 1];
      if (begin == end) continue;
      std::fill(sum.begin(), sum.end(), 0.0);
      for (size_t m = begin; m < end; ++m) {
        const float* row = catalog.row(members[m]);
        for (size_t j = 0; j < dim; ++j) sum[j] += row[j];
      }
      const double inv = 1.0 / static_cast<double>(end - begin);
      float* centroid = index.centroids_.row(c);
      for (size_t j = 0; j < dim; ++j) {
        centroid[j] = static_cast<float>(sum[j] * inv);
      }
    }
  }

  // Final assignment against the converged centroids, then the contiguous
  // per-list layout in one pass: ids grouped by list (ascending id within
  // each list — the counting sort preserves point order), and the catalog
  // rows encoded into the same permutation so a probe scans one contiguous
  // block.
  assign_all();
  std::fill(offsets.begin(), offsets.end(), 0u);
  for (size_t i = 0; i < n; ++i) ++offsets[assign[i] + 1];
  for (size_t c = 0; c < nlist; ++c) offsets[c + 1] += offsets[c];
  index.list_offsets_ = offsets;
  index.ids_.resize(n);
  {
    std::vector<uint32_t> cursor(offsets.begin(), offsets.end() - 1);
    for (size_t i = 0; i < n; ++i) {
      index.ids_[cursor[assign[i]]++] = static_cast<uint32_t>(i);
    }
  }
  // SQ8 storage: codes + one scale per stored row, in list order. No float
  // copy is kept — the exact re-rank reads the caller's catalog.
  index.codes_.resize(n * dim);
  index.scales_.resize(n);
  for (size_t slot = 0; slot < n; ++slot) {
    core::kernels::sq8::EncodeRow(catalog.row(index.ids_[slot]), dim,
                                  index.codes_.data() + slot * dim,
                                  &index.scales_[slot]);
  }
  index.RecomputeListScaleMax();
  index.centroid_panel_ = core::kernels::RowPanel(index.centroids_);
  index.catalog_ = &catalog;
  return index;
}

void IvfIndex::RecomputeListScaleMax() {
  list_scale_max_.assign(nlist(), 0.0f);
  for (size_t c = 0; c < nlist(); ++c) {
    for (size_t r = list_offsets_[c]; r < list_offsets_[c + 1]; ++r) {
      list_scale_max_[c] = std::max(list_scale_max_[c], scales_[r]);
    }
  }
}

void IvfIndex::AttachRerankCatalog(const core::Matrix& catalog) {
  GARCIA_CHECK_EQ(catalog.rows(), size());
  GARCIA_CHECK_EQ(catalog.cols(), dim());
  catalog_ = &catalog;
}

size_t IvfIndex::ListStorageBytes() const {
  return codes_.size() * sizeof(int8_t) + scales_.size() * sizeof(float);
}

size_t IvfIndex::MemoryBytes() const {
  return centroids_.size() * sizeof(float) + centroid_panel_.MemoryBytes() +
         list_offsets_.size() * sizeof(uint32_t) +
         ids_.size() * sizeof(uint32_t) +
         list_scale_max_.size() * sizeof(float) + ListStorageBytes();
}

// ------------------------------------------------------------------ query

RankedList IvfIndex::Query(const float* query, size_t k, size_t nprobe,
                           size_t rerank_k, QueryStats* stats) const {
  GARCIA_CHECK(!empty());
  nprobe = std::min(std::max<size_t>(nprobe, 1), nlist());
  if (k == 0) return {};

  // Coarse stage: rank centroids by inner product through the serving
  // top-K kernel (score desc, id asc — the probe order is part of the
  // determinism contract and of the nprobe-monotonicity argument: probe
  // sets are nested as nprobe grows).
  RankedList probes = core::kernels::TopKDot(query, centroid_panel_, nprobe);

  auto list_len = [&](uint32_t list) {
    return static_cast<size_t>(list_offsets_[list + 1] - list_offsets_[list]);
  };
  size_t num_candidates = 0;
  for (const auto& [list, score] : probes) num_candidates += list_len(list);

  // Serving contract: min(k, size()) results, always — a request must not
  // fall off the end of the degradation chain just because its nprobe-best
  // lists happen to be underpopulated (dead clusters). When the probed
  // prefix holds too few candidates, extend it down the SAME centroid
  // ranking until it has enough. The effective probe set is still a prefix
  // of the full centroid ranking, so probe sets stay nested in nprobe
  // (recall stays monotone) and nprobe >= nlist is unaffected.
  const size_t want = std::min(k, ids_.size());
  if (num_candidates < want && probes.size() < nlist()) {
    probes = core::kernels::TopKDot(query, centroid_panel_, nlist());
    size_t used = 0;
    num_candidates = 0;
    for (; used < probes.size() && (used < nprobe || num_candidates < want);
         ++used) {
      num_candidates += list_len(probes[used].first);
    }
    probes.resize(used);
  }
  k = std::min(k, num_candidates);
  if (k == 0) return {};
  return QuerySq8(query, k, probes, rerank_k, stats);
}

RankedList IvfIndex::Query(const float* query, size_t k) const {
  return Query(query, k, default_nprobe_, default_rerank_k_);
}

// -------------------------------------------------------------- SQ8 query

RankedList IvfIndex::QuerySq8(const float* query, size_t k,
                              const RankedList& probes, size_t rerank_k,
                              QueryStats* stats) const {
  GARCIA_CHECK(catalog_ != nullptr)
      << "IvfIndex queried without a re-rank catalog "
         "(AttachRerankCatalog after Load)";
  const size_t d = dim();

  // Stage 1: the asymmetric int8 scan scores every probed candidate into
  // one flat buffer (slot order = probe order, ascending row within a
  // list).
  core::kernels::sq8::RowRanges ranges;
  ranges.reserve(probes.size());
  size_t total = 0;
  for (const auto& [list, score] : probes) {
    ranges.emplace_back(list_offsets_[list], list_offsets_[list + 1]);
    total += ranges.back().second - ranges.back().first;
  }
  GARCIA_CHECK_GE(total, k);
  const core::kernels::sq8::QueryCodes qc =
      core::kernels::sq8::QuantizeQuery(query, d);
  std::vector<float> approx(total);
  core::kernels::sq8::ScanDots(qc, codes_.data(), scales_.data(), d, ranges,
                               approx.data());
  if (stats != nullptr) stats->quantized_rows += total;

  // Stage 2a: the re-rank cutoff. T = the R-th best approximate score (a
  // multiset statistic — independent of scan order), B = the error band
  // |exact - approx| can reach over the probed rows. Every candidate with
  // approx >= T - 2B is re-scored exactly: a candidate below the cutoff
  // has >= R candidates whose EXACT score is strictly higher (kernels.h
  // band argument), so it provably cannot enter the exact top-k. That
  // makes the result the exact top-k of the probed candidates for every
  // rerank_k — rerank_k only moves how far below T the guarantee starts
  // paying.
  const size_t r_depth = std::min(ResolveRerankK(rerank_k, k), total);
  double cutoff = -std::numeric_limits<double>::infinity();
  if (r_depth < total) {
    // T through an R-element min-heap: after every score has been offered,
    // the heap holds R scores no smaller than any score left out, and its
    // top is the smallest of them — the R-th best. A score equal to the
    // top is not taken in, which leaves T's value unchanged; +0 and -0
    // compare equal, so T may differ from a full sort's only in the sign
    // of a zero, and then T - 2B and every comparison against it do not.
    std::vector<float> best(approx.begin(), approx.begin() + r_depth);
    std::make_heap(best.begin(), best.end(), std::greater<float>());
    for (size_t slot = r_depth; slot < total; ++slot) {
      if (approx[slot] > best.front()) {
        std::pop_heap(best.begin(), best.end(), std::greater<float>());
        best.back() = approx[slot];
        std::push_heap(best.begin(), best.end(), std::greater<float>());
      }
    }
    float band_scale = 0.0f;
    for (const auto& [list, score] : probes) {
      band_scale = std::max(band_scale, list_scale_max_[list]);
    }
    const double band =
        static_cast<double>(band_scale) * qc.ErrorBandPerUnitScale(d);
    cutoff = static_cast<double>(best.front()) - 2.0 * band;
  }

  // Stage 2b: exact re-rank. Survivors are collected in ascending slot
  // order, one pass per probed range (a deterministic set — the cutoff is
  // a pure function of the scan), re-scored against the original catalog
  // rows with the exact TopKDot expression, and the top k selected under
  // the shared total order.
  // The walk writes every row and advances past survivors only: with no
  // call inside the loop, its pointers stay in registers.
  std::vector<uint32_t> survivors(total);
  {
    size_t kept = 0;
    const float* score = approx.data();
    for (const auto& [begin, end] : ranges) {
      for (uint32_t row = begin; row < end; ++row, ++score) {
        survivors[kept] = row;
        kept += static_cast<double>(*score) >= cutoff;
      }
    }
    survivors.resize(kept);
  }
  GARCIA_CHECK_GE(survivors.size(), k);
  if (stats != nullptr) stats->rerank_rows += survivors.size();
  RankedList result;
  result.reserve(k);
  for (const uint32_t slot : survivors) {
    const uint32_t id = ids_[slot];
    const ScoredId cand{id, DotRowDouble(query, catalog_->row(id), d)};
    if (result.size() < k) {
      result.push_back(cand);
      std::push_heap(result.begin(), result.end(), RanksBefore);
    } else if (RanksBefore(cand, result.front())) {
      std::pop_heap(result.begin(), result.end(), RanksBefore);
      result.back() = cand;
      std::push_heap(result.begin(), result.end(), RanksBefore);
    }
  }
  std::sort_heap(result.begin(), result.end(), RanksBefore);
  return result;
}

// ------------------------------------------------------------ persistence

core::Status IvfIndex::Save(const std::string& path) const {
  GARCIA_CHECK(!empty());
  std::string meta;
  core::AppendPod(&meta, static_cast<uint64_t>(size()));
  core::AppendPod(&meta, static_cast<uint64_t>(dim()));
  core::AppendPod(&meta, static_cast<uint64_t>(nlist()));
  core::AppendPod(&meta, static_cast<uint64_t>(default_nprobe_));
  core::AppendPod(&meta, seed_);
  core::AppendPod(&meta, static_cast<uint64_t>(default_rerank_k_));

  std::string lists(BytesOf(list_offsets_.data(), list_offsets_.size()));
  lists.append(BytesOf(ids_.data(), ids_.size()));

  const std::string bytes = kFormat.Encode(
      {meta, BytesOf(centroids_.data(), centroids_.size()), lists,
       BytesOf(codes_.data(), codes_.size()),
       BytesOf(scales_.data(), scales_.size())});
  return core::WriteFileAtomic(path, bytes.data(), bytes.size());
}

core::Result<IvfIndex> IvfIndex::Load(const std::string& path) {
  auto bytes = core::ReadFile(path, kMaxIndexBytes);
  if (!bytes.ok()) return bytes.status();
  if (std::string_view(*bytes).starts_with(kMagicFloatRetired)) {
    return core::Status::InvalidArgument(
        "float IVF (GIV1) dumps are no longer supported; rebuild the index "
        "(" + path + ")");
  }
  auto sections = kFormat.Decode(*bytes, path);
  if (!sections.ok()) return sections.status();
  const std::string_view centroids = (*sections)[1], lists = (*sections)[2],
                         codes = (*sections)[3], scales = (*sections)[4];

  // Meta: counts first, then every other section's size is implied and
  // verified before any reinterpretation.
  core::ByteReader meta((*sections)[0]);
  uint64_t n = 0, dim = 0, nlist = 0, nprobe = 0, seed = 0, rerank_k = 0;
  if (!meta.Pod(&n) || !meta.Pod(&dim) || !meta.Pod(&nlist) ||
      !meta.Pod(&nprobe) || !meta.Pod(&seed) || !meta.Pod(&rerank_k) ||
      !meta.exhausted() || n == 0 || dim == 0 || nlist == 0 || nlist > n ||
      nprobe == 0 || nprobe > nlist || n > (uint64_t{1} << 32) ||
      dim > (uint64_t{1} << 16) || rerank_k > (uint64_t{1} << 32)) {
    return core::Status::InvalidArgument("corrupt IVF meta section in " +
                                         path);
  }
  if (centroids.size() != nlist * dim * sizeof(float) ||
      lists.size() != (nlist + 1 + n) * sizeof(uint32_t) ||
      codes.size() != n * dim * sizeof(int8_t) ||
      scales.size() != n * sizeof(float)) {
    return core::Status::InvalidArgument(
        "IVF index section sizes disagree with meta in " + path);
  }

  IvfIndex index;
  index.seed_ = seed;
  index.default_nprobe_ = static_cast<size_t>(nprobe);
  index.default_rerank_k_ = static_cast<size_t>(rerank_k);
  index.centroids_ = core::Matrix(nlist, dim);
  std::memcpy(index.centroids_.data(), centroids.data(), centroids.size());
  index.list_offsets_.resize(nlist + 1);
  std::memcpy(index.list_offsets_.data(), lists.data(),
              (nlist + 1) * sizeof(uint32_t));
  index.ids_.resize(n);
  std::memcpy(index.ids_.data(), lists.data() + (nlist + 1) * sizeof(uint32_t),
              n * sizeof(uint32_t));
  index.codes_.resize(n * dim);
  std::memcpy(index.codes_.data(), codes.data(), codes.size());
  index.scales_.resize(n);
  std::memcpy(index.scales_.data(), scales.data(), scales.size());
  for (float s : index.scales_) {
    if (!(s >= 0.0f) || !std::isfinite(s)) {
      return core::Status::InvalidArgument("corrupt IVF scale table in " +
                                           path);
    }
  }
  // Centroids are scored by TopKDot, whose total order needs non-NaN
  // scores: an inf coordinate times a zero query coordinate is NaN. The
  // probe panel CHECKs the same condition, so it is packed only once this
  // check has turned a hostile dump into a Status.
  const float* first = index.centroids_.data();
  if (!std::all_of(first, first + index.centroids_.size(),
                   [](float v) { return std::isfinite(v); })) {
    return core::Status::InvalidArgument("corrupt IVF centroid table in " +
                                         path + " (non-finite value)");
  }
  index.centroid_panel_ = core::kernels::RowPanel(index.centroids_);

  // Structural validation: offsets must be a monotone cover of [0, n] and
  // the stored ids a permutation of the catalog rows (a repeated id would
  // be served twice in one answer).
  if (index.list_offsets_.front() != 0 || index.list_offsets_.back() != n) {
    return core::Status::InvalidArgument("corrupt IVF list offsets in " +
                                         path);
  }
  for (size_t c = 0; c < nlist; ++c) {
    if (index.list_offsets_[c] > index.list_offsets_[c + 1]) {
      return core::Status::InvalidArgument("corrupt IVF list offsets in " +
                                           path);
    }
  }
  std::vector<bool> present(n, false);
  for (uint32_t id : index.ids_) {
    if (id >= n || present[id]) {
      return core::Status::InvalidArgument(
          "corrupt IVF id table in " + path +
          " (not a permutation of [0, n))");
    }
    present[id] = true;
  }
  // The per-list band bound is derived state: rebuild it after the list
  // layout is known-good.
  index.RecomputeListScaleMax();
  return index;
}

}  // namespace garcia::serving
