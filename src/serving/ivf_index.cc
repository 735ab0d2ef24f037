#include "serving/ivf_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>

#include "core/crc32.h"
#include "core/fileio.h"
#include "core/kernels.h"
#include "core/macros.h"
#include "core/rng.h"

namespace garcia::serving {

namespace {

using ScoredId = std::pair<uint32_t, float>;
// The retrieval total order and the exact dot are kernels::TopKDot's own
// (core/kernels.h), so index scores and rankings equal the brute-force
// scan's bitwise.
using core::kernels::DotRowDouble;
using core::kernels::RanksBefore;

/// Squared L2 distance in double (k-means assignment metric).
inline double SquaredL2(const float* a, const float* b, size_t dim) {
  double d = 0.0;
  for (size_t j = 0; j < dim; ++j) {
    const double diff = static_cast<double>(a[j]) - b[j];
    d += diff * diff;
  }
  return d;
}

/// Nearest centroid of one point: strictly smaller distance wins, ties
/// break by ascending centroid id (first minimum kept). Independent per
/// point, so the assignment pass shards freely.
uint32_t NearestCentroid(const float* point, const core::Matrix& centroids) {
  uint32_t best = 0;
  double best_dist = SquaredL2(point, centroids.row(0), centroids.cols());
  for (size_t c = 1; c < centroids.rows(); ++c) {
    const double d = SquaredL2(point, centroids.row(c), centroids.cols());
    if (d < best_dist) {
      best_dist = d;
      best = static_cast<uint32_t>(c);
    }
  }
  return best;
}

// ------------------------------------------------------------ persistence

// GIV2: SQ8 lists (meta, centroids, lists, codes, scales). The retired
// float-list GIV1 magic is recognized only to reject it by name.
constexpr char kMagicSq8[4] = {'G', 'I', 'V', '2'};
constexpr char kMagicFloatRetired[4] = {'G', 'I', 'V', '1'};
constexpr uint32_t kVersion = 1;

enum class SectionId : uint32_t {
  kMeta = 1,
  kCentroids = 2,
  kLists = 3,
  kCodes = 4,
  kScales = 5,
};
constexpr uint32_t kNumSectionsSq8 = 5;

const char* SectionName(uint32_t id) {
  switch (id) {
    case 1:
      return "meta";
    case 2:
      return "centroids";
    case 3:
      return "lists";
    case 4:
      return "codes";
    case 5:
      return "scales";
  }
  return "unknown";
}

template <typename T>
void AppendPod(std::string* out, const T& value) {
  out->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

void AppendSection(std::string* out, SectionId id, const std::string& payload) {
  AppendPod(out, static_cast<uint32_t>(id));
  AppendPod(out, static_cast<uint64_t>(payload.size()));
  AppendPod(out, core::Crc32(payload.data(), payload.size()));
  out->append(payload);
}

/// Bounds-checked little cursor over loaded index bytes.
class ByteReader {
 public:
  ByteReader(const std::string& bytes, const std::string& origin)
      : bytes_(bytes), origin_(origin) {}

  template <typename T>
  core::Status Read(T* out) {
    if (pos_ + sizeof(T) > bytes_.size()) {
      return core::Status::InvalidArgument("truncated index " + origin_);
    }
    std::memcpy(out, bytes_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return core::Status::Ok();
  }

  core::Status ReadBytes(void* out, size_t n) {
    if (pos_ + n > bytes_.size()) {
      return core::Status::InvalidArgument("truncated index " + origin_);
    }
    std::memcpy(out, bytes_.data() + pos_, n);
    pos_ += n;
    return core::Status::Ok();
  }

  size_t pos() const { return pos_; }
  size_t remaining() const { return bytes_.size() - pos_; }

 private:
  const std::string& bytes_;
  const std::string& origin_;
  size_t pos_ = 0;
};

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
                         const RetrievalConfig& config,
                         const core::ExecutionContext& ctx) {
  const size_t n = catalog.rows();
  const size_t dim = catalog.cols();
  GARCIA_CHECK_GT(n, 0u);
  GARCIA_CHECK_GT(dim, 0u);
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

  // Lloyd sweeps, fixed count. Both phases shard over independent output
  // coordinates with per-destination accumulation in ascending source
  // order, so any thread count reproduces the serial sweep exactly.
  std::vector<uint32_t> assign(n, 0);
  std::vector<uint32_t> members(n);       // point ids, grouped by centroid
  std::vector<uint32_t> offsets(nlist + 1, 0);
  const size_t min_assign_shard = ctx.tuning().min_rows_per_shard;
  const size_t min_update_shard = ctx.tuning().min_segments_per_shard;
  for (size_t iter = 0; iter < kKmeansIterations; ++iter) {
    // Assignment: each point independently picks its nearest centroid.
    ctx.ShardedFor(0, n, min_assign_shard, [&](size_t lo, size_t hi) {
      for (size_t i = lo; i < hi; ++i) {
        assign[i] = NearestCentroid(catalog.row(i), index.centroids_);
      }
    });
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
    ctx.ShardedFor(0, nlist, min_update_shard, [&](size_t clo, size_t chi) {
      std::vector<double> sum(dim);
      for (size_t c = clo; c < chi; ++c) {
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
    });
  }

  // Final assignment against the converged centroids, then the contiguous
  // per-list layout in one pass: ids grouped by list (ascending id within
  // each list — the counting sort preserves point order), and the catalog
  // rows encoded into the same permutation so a probe scans one contiguous
  // block.
  ctx.ShardedFor(0, n, min_assign_shard, [&](size_t lo, size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      assign[i] = NearestCentroid(catalog.row(i), index.centroids_);
    }
  });
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
  // SQ8 storage: codes + one scale per stored row, in list order. Each
  // slot encodes one catalog row independently into disjoint output
  // ranges, so the shard partitioning cannot change a byte. No float copy
  // is kept — the exact re-rank reads the caller's catalog.
  index.codes_.resize(n * dim);
  index.scales_.resize(n);
  ctx.ShardedFor(0, n, min_assign_shard, [&](size_t lo, size_t hi) {
    for (size_t slot = lo; slot < hi; ++slot) {
      core::kernels::sq8::EncodeRow(catalog.row(index.ids_[slot]), dim,
                                    index.codes_.data() + slot * dim,
                                    &index.scales_[slot]);
    }
  });
  index.RecomputeListScaleMax();
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
  return centroids_.size() * sizeof(float) +
         list_offsets_.size() * sizeof(uint32_t) +
         ids_.size() * sizeof(uint32_t) +
         list_scale_max_.size() * sizeof(float) + ListStorageBytes();
}

// ------------------------------------------------------------------ query

RankedList IvfIndex::Query(const core::ExecutionContext& ctx,
                           const float* query, size_t k, size_t nprobe,
                           size_t rerank_k, QueryStats* stats) const {
  GARCIA_CHECK(!empty());
  nprobe = std::min(std::max<size_t>(nprobe, 1), nlist());
  if (k == 0) return {};

  // Coarse stage: rank centroids by inner product through the shared
  // top-K kernel (score desc, id asc — the probe order is part of the
  // determinism contract and of the nprobe-monotonicity argument: probe
  // sets are nested as nprobe grows).
  RankedList probes =
      core::kernels::TopKDot(ctx, query, dim(), centroids_, nprobe);

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
    probes = core::kernels::TopKDot(ctx, query, dim(), centroids_, nlist());
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
  return QuerySq8(ctx, query, k, probes, rerank_k, stats);
}

RankedList IvfIndex::Query(const float* query, size_t k) const {
  return Query(core::CurrentExecution(), query, k, default_nprobe_,
               default_rerank_k_);
}

// -------------------------------------------------------------- SQ8 query

RankedList IvfIndex::QuerySq8(const core::ExecutionContext& ctx,
                              const float* query, size_t k,
                              const RankedList& probes, size_t rerank_k,
                              QueryStats* stats) const {
  GARCIA_CHECK(catalog_ != nullptr)
      << "IvfIndex queried without a re-rank catalog "
         "(AttachRerankCatalog after Load)";
  const size_t d = dim();

  // Stage 1: the asymmetric int8 scan scores every probed candidate into
  // one flat buffer (slot order = probe order, ascending row within a
  // list — fixed, so the buffer is thread-count-invariant).
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  ranges.reserve(probes.size());
  std::vector<size_t> prefix(probes.size() + 1, 0);
  for (size_t p = 0; p < probes.size(); ++p) {
    const uint32_t list = probes[p].first;
    ranges.emplace_back(list_offsets_[list], list_offsets_[list + 1]);
    prefix[p + 1] = prefix[p] + (ranges[p].second - ranges[p].first);
  }
  const size_t total = prefix.back();
  GARCIA_CHECK_GE(total, k);
  const core::kernels::sq8::QueryCodes qc =
      core::kernels::sq8::QuantizeQuery(query, d);
  std::vector<float> approx(total);
  core::kernels::sq8::ScanDots(ctx, qc, codes_.data(), scales_.data(), d,
                               ranges, approx.data());
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
    std::vector<float> top(approx);
    std::nth_element(top.begin(), top.begin() + (r_depth - 1), top.end(),
                     std::greater<float>());
    float band_scale = 0.0f;
    for (const auto& [list, score] : probes) {
      band_scale = std::max(band_scale, list_scale_max_[list]);
    }
    const double band =
        static_cast<double>(band_scale) * qc.ErrorBandPerUnitScale(d);
    cutoff = static_cast<double>(top[r_depth - 1]) - 2.0 * band;
  }

  // Stage 2b: exact re-rank. Survivors are collected in ascending slot
  // order (a deterministic set — the cutoff is a pure function of the
  // scan), re-scored against the original catalog rows with the exact
  // TopKDot expression (disjoint writes, pure per-row), and the top k
  // selected serially under the shared total order.
  std::vector<uint32_t> survivors;
  survivors.reserve(std::min(total, 2 * r_depth));
  {
    size_t p = 0;
    for (size_t slot = 0; slot < total; ++slot) {
      while (prefix[p + 1] <= slot) ++p;
      if (static_cast<double>(approx[slot]) >= cutoff) {
        survivors.push_back(ranges[p].first +
                            static_cast<uint32_t>(slot - prefix[p]));
      }
    }
  }
  GARCIA_CHECK_GE(survivors.size(), k);
  if (stats != nullptr) stats->rerank_rows += survivors.size();
  std::vector<float> exact(survivors.size());
  ctx.ShardedFor(0, survivors.size(), ctx.tuning().min_rows_per_shard,
                 [&](size_t lo, size_t hi) {
                   for (size_t i = lo; i < hi; ++i) {
                     exact[i] = DotRowDouble(
                         query, catalog_->row(ids_[survivors[i]]), d);
                   }
                 });
  RankedList result;
  result.reserve(k);
  for (size_t i = 0; i < survivors.size(); ++i) {
    const ScoredId cand{ids_[survivors[i]], exact[i]};
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
  AppendPod(&meta, static_cast<uint64_t>(size()));
  AppendPod(&meta, static_cast<uint64_t>(dim()));
  AppendPod(&meta, static_cast<uint64_t>(nlist()));
  AppendPod(&meta, static_cast<uint64_t>(default_nprobe_));
  AppendPod(&meta, seed_);
  AppendPod(&meta, static_cast<uint64_t>(default_rerank_k_));

  std::string centroids(reinterpret_cast<const char*>(centroids_.data()),
                        centroids_.size() * sizeof(float));

  std::string lists;
  lists.reserve((list_offsets_.size() + ids_.size()) * sizeof(uint32_t));
  lists.append(reinterpret_cast<const char*>(list_offsets_.data()),
               list_offsets_.size() * sizeof(uint32_t));
  lists.append(reinterpret_cast<const char*>(ids_.data()),
               ids_.size() * sizeof(uint32_t));

  std::string codes(reinterpret_cast<const char*>(codes_.data()),
                    codes_.size() * sizeof(int8_t));
  std::string scales(reinterpret_cast<const char*>(scales_.data()),
                     scales_.size() * sizeof(float));

  std::string bytes;
  bytes.reserve(64 + meta.size() + centroids.size() + lists.size() +
                ListStorageBytes());
  bytes.append(kMagicSq8, 4);
  AppendPod(&bytes, kVersion);
  AppendPod(&bytes, kNumSectionsSq8);
  AppendSection(&bytes, SectionId::kMeta, meta);
  AppendSection(&bytes, SectionId::kCentroids, centroids);
  AppendSection(&bytes, SectionId::kLists, lists);
  AppendSection(&bytes, SectionId::kCodes, codes);
  AppendSection(&bytes, SectionId::kScales, scales);
  return core::WriteFileAtomic(path, bytes.data(), bytes.size());
}

core::Result<IvfIndex> IvfIndex::Load(const std::string& path) {
  auto bytes_or = core::ReadFile(path, kMaxIndexBytes);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = bytes_or.value();
  ByteReader reader(bytes, path);

  char magic[4];
  GARCIA_RETURN_IF_ERROR(reader.ReadBytes(magic, 4));
  if (std::memcmp(magic, kMagicFloatRetired, 4) == 0) {
    return core::Status::InvalidArgument(
        "float IVF (GIV1) dumps are no longer supported; rebuild the index "
        "(" + path + ")");
  }
  if (std::memcmp(magic, kMagicSq8, 4) != 0) {
    return core::Status::InvalidArgument(path + " is not an IVF index");
  }
  uint32_t version = 0, num_sections = 0;
  GARCIA_RETURN_IF_ERROR(reader.Read(&version));
  if (version != kVersion) {
    return core::Status::InvalidArgument(
        "unsupported IVF index version " + std::to_string(version) + " in " +
        path);
  }
  GARCIA_RETURN_IF_ERROR(reader.Read(&num_sections));
  if (num_sections != kNumSectionsSq8) {
    return core::Status::InvalidArgument("corrupt IVF index header in " +
                                         path);
  }

  // Sections arrive in fixed order; each payload is CRC-checked before it
  // is interpreted, so a bit flip is localized to a named section.
  std::string payloads[kNumSectionsSq8];
  for (uint32_t s = 0; s < kNumSectionsSq8; ++s) {
    uint32_t id = 0, crc = 0;
    uint64_t size = 0;
    GARCIA_RETURN_IF_ERROR(reader.Read(&id));
    GARCIA_RETURN_IF_ERROR(reader.Read(&size));
    GARCIA_RETURN_IF_ERROR(reader.Read(&crc));
    if (id != s + 1) {
      return core::Status::InvalidArgument(
          "unexpected IVF index section order in " + path);
    }
    if (size > reader.remaining()) {
      return core::Status::InvalidArgument("truncated index " + path);
    }
    payloads[s].resize(size);
    GARCIA_RETURN_IF_ERROR(reader.ReadBytes(payloads[s].data(), size));
    if (core::Crc32(payloads[s].data(), size) != crc) {
      return core::Status::InvalidArgument(
          std::string("IVF index section '") + SectionName(id) +
          "' checksum mismatch in " + path + " (stored index is corrupt)");
    }
  }
  if (reader.remaining() != 0) {
    return core::Status::InvalidArgument(
        "trailing garbage after IVF index payload in " + path);
  }

  // Meta: counts first, then every other section's size is implied and
  // verified before any reinterpretation.
  const std::string& meta = payloads[0];
  if (meta.size() != 6 * sizeof(uint64_t)) {
    return core::Status::InvalidArgument("corrupt IVF meta section in " +
                                         path);
  }
  uint64_t n = 0, dim = 0, nlist = 0, nprobe = 0, seed = 0, rerank_k = 0;
  std::memcpy(&n, meta.data(), 8);
  std::memcpy(&dim, meta.data() + 8, 8);
  std::memcpy(&nlist, meta.data() + 16, 8);
  std::memcpy(&nprobe, meta.data() + 24, 8);
  std::memcpy(&seed, meta.data() + 32, 8);
  std::memcpy(&rerank_k, meta.data() + 40, 8);
  if (n == 0 || dim == 0 || nlist == 0 || nlist > n || nprobe == 0 ||
      nprobe > nlist || n > (uint64_t{1} << 32) ||
      dim > (uint64_t{1} << 16) || rerank_k > (uint64_t{1} << 32)) {
    return core::Status::InvalidArgument("corrupt IVF meta section in " +
                                         path);
  }
  if (payloads[1].size() != nlist * dim * sizeof(float) ||
      payloads[2].size() != (nlist + 1 + n) * sizeof(uint32_t) ||
      payloads[3].size() != n * dim * sizeof(int8_t) ||
      payloads[4].size() != n * sizeof(float)) {
    return core::Status::InvalidArgument(
        "IVF index section sizes disagree with meta in " + path);
  }

  IvfIndex index;
  index.seed_ = seed;
  index.default_nprobe_ = static_cast<size_t>(nprobe);
  index.default_rerank_k_ = static_cast<size_t>(rerank_k);
  index.centroids_ = core::Matrix(nlist, dim);
  std::memcpy(index.centroids_.data(), payloads[1].data(),
              payloads[1].size());
  index.list_offsets_.resize(nlist + 1);
  std::memcpy(index.list_offsets_.data(), payloads[2].data(),
              (nlist + 1) * sizeof(uint32_t));
  index.ids_.resize(n);
  std::memcpy(index.ids_.data(),
              payloads[2].data() + (nlist + 1) * sizeof(uint32_t),
              n * sizeof(uint32_t));
  index.codes_.resize(n * dim);
  std::memcpy(index.codes_.data(), payloads[3].data(), payloads[3].size());
  index.scales_.resize(n);
  std::memcpy(index.scales_.data(), payloads[4].data(), payloads[4].size());
  for (float s : index.scales_) {
    if (!(s >= 0.0f) || !std::isfinite(s)) {
      return core::Status::InvalidArgument("corrupt IVF scale table in " +
                                           path);
    }
  }

  // Structural validation: offsets must be a monotone cover of [0, n] and
  // every stored id must be a valid catalog row.
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
  for (uint32_t id : index.ids_) {
    if (id >= n) {
      return core::Status::InvalidArgument("corrupt IVF id table in " + path);
    }
  }
  // The per-list band bound is derived state: rebuild it after the list
  // layout is known-good.
  index.RecomputeListScaleMax();
  return index;
}

}  // namespace garcia::serving
