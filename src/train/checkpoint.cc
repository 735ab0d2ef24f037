#include "train/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iterator>

#include "core/fileio.h"
#include "core/logging.h"
#include "core/sectioned_file.h"

namespace garcia::train {

namespace fs = std::filesystem;

using core::AppendPod;
using core::ByteReader;
using core::Matrix;
using core::Result;
using core::RngState;
using core::Status;

namespace {

// Section names in id order (CheckpointSectionId 1..6).
constexpr const char* kSectionNames[] = {"config",    "progress", "params",
                                         "optimizer", "rng",      "iterator"};
constexpr core::SectionedFile kFormat{"GCK1", 1, kSectionNames};

// Count/shape bounds: generous for any realistic run, tight enough that a
// corrupt count cannot drive a pathological allocation.
constexpr uint64_t kMaxTensors = 1ull << 20;
constexpr uint64_t kMaxRows = 1ull << 32;
constexpr uint64_t kMaxCols = 1ull << 16;
constexpr uint64_t kMaxRngStreams = 64;
constexpr uint64_t kMaxDiagnostics = 1ull << 16;

void AppendMatrix(std::string* out, const Matrix& m) {
  AppendPod(out, static_cast<uint64_t>(m.rows()));
  AppendPod(out, static_cast<uint64_t>(m.cols()));
  out->append(reinterpret_cast<const char*>(m.data()),
              m.size() * sizeof(float));
}

Status SectionError(const std::string& origin, CheckpointSectionId id,
                    const std::string& what) {
  return Status::InvalidArgument(origin + ": " + CheckpointSectionName(id) +
                                 " section " + what);
}

bool ReadMatrix(ByteReader* r, Matrix* out) {
  uint64_t rows = 0, cols = 0;
  if (!r->Pod(&rows) || !r->Pod(&cols)) return false;
  if (rows > kMaxRows || cols > kMaxCols) return false;
  // rows*cols*4 cannot overflow: bounded by 2^32 * 2^16 * 4 = 2^50.
  const uint64_t bytes = rows * cols * sizeof(float);
  if (bytes > r->remaining()) return false;
  Matrix m(rows, cols);
  if (!r->Bytes(m.data(), bytes)) return false;
  *out = std::move(m);
  return true;
}

}  // namespace

const char* KillPointName(KillPoint point) {
  switch (point) {
    case KillPoint::kNone: return "none";
    case KillPoint::kBeforeWrite: return "before-write";
    case KillPoint::kMidWriteTruncate: return "mid-write-truncate";
    case KillPoint::kAfterWrite: return "after-write";
    case KillPoint::kPostWriteBitFlip: return "post-write-bit-flip";
    case KillPoint::kBetweenCheckpoints: return "between-checkpoints";
  }
  return "unknown";
}

const char* CheckpointSectionName(CheckpointSectionId id) {
  const auto index = static_cast<uint32_t>(id) - 1;
  return index < std::size(kSectionNames) ? kSectionNames[index] : "unknown";
}

std::string EncodeCheckpoint(const TrainCheckpoint& ck) {
  std::string config;
  AppendPod(&config, ck.config_fingerprint);

  std::string progress;
  AppendPod(&progress, ck.phase);
  AppendPod(&progress, ck.epoch);
  AppendPod(&progress, ck.step_in_epoch);
  AppendPod(&progress, ck.global_step);
  AppendPod(&progress, static_cast<uint32_t>(ck.diagnostics.size()));
  for (float d : ck.diagnostics) AppendPod(&progress, d);

  std::string params;
  AppendPod(&params, static_cast<uint32_t>(ck.params.size()));
  for (const Matrix& m : ck.params) AppendMatrix(&params, m);

  std::string optimizer;
  AppendPod(&optimizer, ck.adam_t);
  AppendPod(&optimizer, static_cast<uint32_t>(ck.adam_m.size()));
  for (size_t i = 0; i < ck.adam_m.size(); ++i) {
    AppendMatrix(&optimizer, ck.adam_m[i]);
    AppendMatrix(&optimizer, ck.adam_v[i]);
  }

  std::string rng;
  AppendPod(&rng, static_cast<uint32_t>(ck.rng_streams.size()));
  for (const RngState& st : ck.rng_streams) {
    for (uint64_t w : st.words) AppendPod(&rng, w);
    AppendPod(&rng, static_cast<uint8_t>(st.has_cached_normal ? 1 : 0));
    AppendPod(&rng, st.cached_normal);
  }

  std::string iterator;
  AppendPod(&iterator, static_cast<uint8_t>(ck.has_iterator ? 1 : 0));
  AppendPod(&iterator, ck.iterator_cursor);
  AppendPod(&iterator, static_cast<uint64_t>(ck.iterator_order.size()));
  iterator.append(reinterpret_cast<const char*>(ck.iterator_order.data()),
                  ck.iterator_order.size() * sizeof(uint32_t));

  return kFormat.Encode({config, progress, params, optimizer, rng, iterator});
}

Result<TrainCheckpoint> DecodeCheckpoint(const std::string& bytes,
                                         const std::string& origin) {
  auto sections = kFormat.Decode(bytes, origin);
  if (!sections.ok()) return sections.status();

  TrainCheckpoint ck;
  for (uint32_t s = 0; s < std::size(kSectionNames); ++s) {
    const auto id = static_cast<CheckpointSectionId>(s + 1);
    ByteReader r((*sections)[s]);
    switch (id) {
      case CheckpointSectionId::kConfig: {
        if (!r.Pod(&ck.config_fingerprint) || !r.exhausted()) {
          return SectionError(origin, id, "has a malformed payload");
        }
        break;
      }
      case CheckpointSectionId::kProgress: {
        uint32_t num_diag = 0;
        if (!r.Pod(&ck.phase) || !r.Pod(&ck.epoch) ||
            !r.Pod(&ck.step_in_epoch) || !r.Pod(&ck.global_step) ||
            !r.Pod(&num_diag) || num_diag > kMaxDiagnostics) {
          return SectionError(origin, id, "has a malformed payload");
        }
        ck.diagnostics.resize(num_diag);
        for (float& d : ck.diagnostics) {
          if (!r.Pod(&d)) return SectionError(origin, id, "is truncated");
        }
        if (!r.exhausted()) {
          return SectionError(origin, id, "has trailing bytes");
        }
        break;
      }
      case CheckpointSectionId::kParams: {
        uint32_t count = 0;
        if (!r.Pod(&count) || count > kMaxTensors) {
          return SectionError(origin, id, "has a malformed payload");
        }
        ck.params.resize(count);
        for (Matrix& m : ck.params) {
          if (!ReadMatrix(&r, &m)) {
            return SectionError(origin, id, "holds a malformed tensor");
          }
        }
        if (!r.exhausted()) {
          return SectionError(origin, id, "has trailing bytes");
        }
        break;
      }
      case CheckpointSectionId::kOptimizer: {
        uint32_t count = 0;
        if (!r.Pod(&ck.adam_t) || !r.Pod(&count) || count > kMaxTensors ||
            ck.adam_t < 0) {
          return SectionError(origin, id, "has a malformed payload");
        }
        ck.adam_m.resize(count);
        ck.adam_v.resize(count);
        for (uint32_t i = 0; i < count; ++i) {
          if (!ReadMatrix(&r, &ck.adam_m[i]) ||
              !ReadMatrix(&r, &ck.adam_v[i])) {
            return SectionError(origin, id, "holds a malformed moment tensor");
          }
        }
        if (!r.exhausted()) {
          return SectionError(origin, id, "has trailing bytes");
        }
        break;
      }
      case CheckpointSectionId::kRng: {
        uint32_t count = 0;
        if (!r.Pod(&count) || count > kMaxRngStreams) {
          return SectionError(origin, id, "has a malformed payload");
        }
        ck.rng_streams.resize(count);
        for (RngState& st : ck.rng_streams) {
          uint8_t flag = 0;
          for (uint64_t& w : st.words) {
            if (!r.Pod(&w)) return SectionError(origin, id, "is truncated");
          }
          if (!r.Pod(&flag) || flag > 1 || !r.Pod(&st.cached_normal)) {
            return SectionError(origin, id, "is truncated");
          }
          st.has_cached_normal = flag != 0;
          if ((st.words[0] | st.words[1] | st.words[2] | st.words[3]) == 0) {
            return SectionError(origin, id, "holds an all-zero rng state");
          }
        }
        if (!r.exhausted()) {
          return SectionError(origin, id, "has trailing bytes");
        }
        break;
      }
      case CheckpointSectionId::kIterator: {
        uint8_t flag = 0;
        uint64_t count = 0;
        if (!r.Pod(&flag) || flag > 1 || !r.Pod(&ck.iterator_cursor) ||
            !r.Pod(&count) || count > kMaxRows ||
            count * sizeof(uint32_t) != r.remaining()) {
          return SectionError(origin, id, "has a malformed payload");
        }
        ck.has_iterator = flag != 0;
        ck.iterator_order.resize(count);
        if (count > 0 &&
            !r.Bytes(ck.iterator_order.data(), count * sizeof(uint32_t))) {
          return SectionError(origin, id, "is truncated");
        }
        if (ck.iterator_cursor > count) {
          return SectionError(origin, id, "cursor is past the end");
        }
        // Training indexes the example list through this order, so an
        // entry out of range or repeated must never reach BatchIterator.
        std::vector<bool> present(count, false);
        for (uint32_t i : ck.iterator_order) {
          if (i >= count || present[i]) {
            return SectionError(origin, id,
                                "order is not a permutation of [0, count)");
          }
          present[i] = true;
        }
        break;
      }
    }
  }

  // Cross-section invariants: Adam moments pair up with parameters.
  if (ck.adam_m.size() != ck.params.size()) {
    return Status::InvalidArgument(
        origin + ": optimizer tracks " + std::to_string(ck.adam_m.size()) +
        " tensors but the model has " + std::to_string(ck.params.size()));
  }
  for (size_t i = 0; i < ck.params.size(); ++i) {
    if (ck.adam_m[i].rows() != ck.params[i].rows() ||
        ck.adam_m[i].cols() != ck.params[i].cols() ||
        ck.adam_v[i].rows() != ck.params[i].rows() ||
        ck.adam_v[i].cols() != ck.params[i].cols()) {
      return Status::InvalidArgument(
          origin + ": moment shape mismatch at tensor " + std::to_string(i));
    }
  }
  return ck;
}

Status SaveCheckpoint(const std::string& path, const TrainCheckpoint& ck) {
  const std::string bytes = EncodeCheckpoint(ck);
  return core::WriteFileAtomic(path, bytes.data(), bytes.size());
}

Result<TrainCheckpoint> LoadCheckpoint(const std::string& path) {
  auto bytes = core::ReadFile(path, kMaxCheckpointBytes);
  if (!bytes.ok()) return bytes.status();
  return DecodeCheckpoint(*bytes, path);
}

std::string CheckpointFileName(uint64_t global_step) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "checkpoint-%08llu.gck",
                static_cast<unsigned long long>(global_step));
  return buf;
}

std::vector<uint64_t> ListCheckpointSteps(const std::string& dir) {
  std::vector<uint64_t> steps;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    constexpr const char* kPrefix = "checkpoint-";
    constexpr const char* kSuffix = ".gck";
    if (name.size() <= std::strlen(kPrefix) + std::strlen(kSuffix)) continue;
    if (name.rfind(kPrefix, 0) != 0) continue;
    if (name.substr(name.size() - 4) != kSuffix) continue;
    const std::string digits =
        name.substr(std::strlen(kPrefix),
                    name.size() - std::strlen(kPrefix) - std::strlen(kSuffix));
    if (digits.empty() ||
        digits.find_first_not_of("0123456789") != std::string::npos) {
      continue;
    }
    steps.push_back(std::strtoull(digits.c_str(), nullptr, 10));
  }
  std::sort(steps.begin(), steps.end());
  return steps;
}

Result<ResumeState> LoadLatestCheckpoint(const std::string& dir,
                                         uint64_t expected_fingerprint) {
  const std::vector<uint64_t> steps = ListCheckpointSteps(dir);
  if (steps.empty()) {
    return Status::NotFound("no checkpoint generations in " + dir);
  }
  std::vector<std::string> skipped;
  for (auto it = steps.rbegin(); it != steps.rend(); ++it) {
    const std::string path = dir + "/" + CheckpointFileName(*it);
    auto loaded = LoadCheckpoint(path);
    if (!loaded.ok()) {
      skipped.push_back(CheckpointFileName(*it) + ": " +
                        loaded.status().ToString());
      continue;
    }
    if ((*loaded).config_fingerprint != expected_fingerprint) {
      return Status::InvalidArgument(
          path + " was written under config fingerprint " +
          std::to_string((*loaded).config_fingerprint) +
          " but this run expects " + std::to_string(expected_fingerprint) +
          "; refusing to resume a different training trajectory");
    }
    ResumeState state;
    state.checkpoint = std::move(*loaded);
    state.loaded_step = *it;
    state.skipped = std::move(skipped);
    return state;
  }
  std::string detail;
  for (const std::string& s : skipped) detail += "\n  " + s;
  return Status::IoError("every checkpoint generation in " + dir +
                         " is corrupt:" + detail);
}

CheckpointManager::CheckpointManager(CheckpointOptions options)
    : options_(std::move(options)) {
  if (enabled()) {
    std::error_code ec;
    fs::create_directories(options_.dir, ec);
    GARCIA_CHECK(!ec) << "cannot create checkpoint directory " << options_.dir
                      << ": " << ec.message();
  }
}

std::optional<TrainCheckpoint> CheckpointManager::Resume() {
  if (!enabled()) return std::nullopt;
  // Sweep temp files a crashed write may have stranded; they are never
  // load candidates, only clutter.
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(options_.dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("checkpoint-", 0) == 0 &&
        name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
      fs::remove(entry.path(), ec);
    }
  }

  auto resumed = LoadLatestCheckpoint(options_.dir, options_.fingerprint);
  if (!resumed.ok()) {
    if (resumed.status().code() == core::StatusCode::kNotFound) {
      return std::nullopt;  // fresh start
    }
    GARCIA_CHECK(false) << "checkpoint resume refused: "
                        << resumed.status().ToString();
  }
  for (const std::string& s : (*resumed).skipped) {
    GARCIA_LOG(Warning) << "skipped torn checkpoint generation " << s;
  }
  GARCIA_LOG(Debug) << "resuming from checkpoint generation "
                    << (*resumed).loaded_step << " in " << options_.dir;
  return std::move(*resumed).checkpoint;
}

void CheckpointManager::Kill(uint64_t global_step) {
  GARCIA_LOG(Warning) << "kill-point " << KillPointName(options_.fault.point)
                      << " firing at step " << global_step
                      << " (simulated crash)";
  throw TrainingKilled{options_.fault.point, global_step};
}

void CheckpointManager::AtStepEnd(
    uint64_t global_step, const std::function<TrainCheckpoint()>& snapshot) {
  const CheckpointFaultPlan& fault = options_.fault;
  const bool armed =
      fault.point != KillPoint::kNone && fault.step == global_step;
  const bool cadence =
      enabled() && global_step % options_.every_steps == 0;

  if (armed && fault.point == KillPoint::kBetweenCheckpoints) {
    GARCIA_CHECK(!cadence) << "between-checkpoints kill-point armed on a "
                              "checkpoint cadence step";
    Kill(global_step);
  }
  if (!cadence) {
    GARCIA_CHECK(!armed) << "write-class kill-point armed at step "
                         << global_step << ", which is not a cadence step";
    return;
  }
  if (armed && fault.point == KillPoint::kBeforeWrite) Kill(global_step);

  TrainCheckpoint ck = snapshot();
  ck.config_fingerprint = options_.fingerprint;
  ck.global_step = global_step;
  const std::string path =
      options_.dir + "/" + CheckpointFileName(global_step);

  if (armed && fault.point == KillPoint::kMidWriteTruncate) {
    // Simulate a torn write under the FINAL name: a crashed non-atomic
    // writer (or post-rename media damage). The loader must skip it.
    const std::string bytes = EncodeCheckpoint(ck);
    std::FILE* f = std::fopen(path.c_str(), "wb");
    GARCIA_CHECK(f != nullptr) << "cannot tear " << path;
    std::fwrite(bytes.data(), 1, bytes.size() / 2, f);
    std::fclose(f);
    Kill(global_step);
  }

  WriteGeneration(global_step, ck);

  if (armed && fault.point == KillPoint::kPostWriteBitFlip) {
    // In-place corruption of the durable generation (fsync'd garbage).
    auto bytes = core::ReadFile(path);
    GARCIA_CHECK(bytes.ok()) << bytes.status().ToString();
    std::string flipped = std::move(*bytes);
    flipped[flipped.size() / 2] ^= 0x20;
    std::FILE* f = std::fopen(path.c_str(), "wb");
    GARCIA_CHECK(f != nullptr) << "cannot corrupt " << path;
    std::fwrite(flipped.data(), 1, flipped.size(), f);
    std::fclose(f);
    Kill(global_step);
  }
  if (armed && fault.point == KillPoint::kAfterWrite) Kill(global_step);
}

void CheckpointManager::WriteGeneration(uint64_t global_step,
                                        const TrainCheckpoint& ck) {
  const std::string path =
      options_.dir + "/" + CheckpointFileName(global_step);
  const Status st = SaveCheckpoint(path, ck);
  if (!st.ok()) {
    // Losing durability must not lose the run; surface it and continue.
    GARCIA_LOG(Warning) << "checkpoint write failed (training continues): "
                        << st.ToString();
    return;
  }
  ++writes_;
  Prune();
}

void CheckpointManager::Prune() {
  if (options_.keep == 0) return;
  std::vector<uint64_t> steps = ListCheckpointSteps(options_.dir);
  std::error_code ec;
  while (steps.size() > options_.keep) {
    fs::remove(options_.dir + "/" + CheckpointFileName(steps.front()), ec);
    steps.erase(steps.begin());
  }
}

}  // namespace garcia::train
