// Copyright (c) 2026 GARCIA reproduction authors.
// Crash-safe training checkpoints (DESIGN.md §5h).
//
// A checkpoint is a "GCK1" core::SectionedFile container
// (core/sectioned_file.h) holding everything a training loop needs to
// continue bit-identically to the run that wrote it: parameter tensors,
// Adam moments, every core::Rng stream position, the epoch/step counters,
// the mid-epoch batch-iterator position, and a fingerprint of the
// trajectory-relevant TrainConfig fields. There are exactly six sections,
// in id order, each with its own CRC-32, so corruption is localized to a
// named section in the error message. The container layout, its
// validation and the bounds-checked core::ByteReader are shared with the
// GIV2 index dumps; this file owns only the six payload codecs.
//
// Durability protocol: every generation is written with
// core::WriteFileAtomic (temp file + fsync + rename + directory fsync) to
// "checkpoint-<global_step>.gck" under the checkpoint directory, and the
// newest K generations are kept. A crash therefore leaves the directory
// with only intact generations plus, at worst, one ignorable ".tmp".
// Loading is corruption-aware anyway — torn bytes under a final name
// (e.g. disk-level corruption after the fsync) make LoadLatestCheckpoint
// fall back to the newest older generation that decodes cleanly, reporting
// the skipped ones.
//
// The resume contract is REPLAY: restoring a checkpoint puts the loop at
// the exact post-step state the snapshot captured, and because every
// stochastic draw flows through the serialized rng streams, the resumed
// trajectory replays the uninterrupted one bit for bit (the same contract
// the execution layer and sampler already keep — DESIGN.md §5d/§5e).
//
// Kill-point fault injection: CheckpointManager can be armed (tests only)
// to simulate a crash at a chosen step — before a write, mid-write with a
// torn final file, after a durable write, with a post-write bit flip, or
// between checkpoints — by throwing TrainingKilled. The crash-resume
// harness in tests/train_checkpoint_test.cc sweeps every class.

#ifndef GARCIA_TRAIN_CHECKPOINT_H_
#define GARCIA_TRAIN_CHECKPOINT_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/matrix.h"
#include "core/rng.h"
#include "core/status.h"

namespace garcia::train {

// ------------------------------------------------------------ kill points

/// Deterministic crash classes for the fault-injection harness. Each one
/// models a distinct relationship between the crash and the write
/// protocol; together they cover every instant a real kill can hit.
enum class KillPoint : int {
  kNone = 0,
  /// Crash after the snapshot but before any bytes reach disk.
  kBeforeWrite = 1,
  /// Crash mid-write that bypasses the atomic protocol and leaves a torn
  /// file under the FINAL generation name (models a non-atomic writer or
  /// post-rename media corruption — the case fallback must absorb).
  kMidWriteTruncate = 2,
  /// Crash immediately after the generation is durable.
  kAfterWrite = 3,
  /// The write completes but one bit of the final file is flipped before
  /// the crash (fsync'd garbage; the per-section CRC catches it).
  kPostWriteBitFlip = 4,
  /// Crash at a step where no checkpoint write is in flight.
  kBetweenCheckpoints = 5,
};
constexpr size_t kNumKillPoints = 6;

const char* KillPointName(KillPoint point);

/// Arms one simulated crash: `point` fires when the training loop finishes
/// global step `step` (1-based). kNone disarms.
struct CheckpointFaultPlan {
  KillPoint point = KillPoint::kNone;
  uint64_t step = 0;
};

/// Thrown by CheckpointManager when an armed kill-point fires. The harness
/// catches it, then constructs a fresh model over the same checkpoint
/// directory — exactly what a process restart would do.
struct TrainingKilled {
  KillPoint point = KillPoint::kNone;
  uint64_t step = 0;
};

// -------------------------------------------------------------- container

/// Everything needed to continue a training loop bit-identically.
struct TrainCheckpoint {
  /// models::TrainFingerprint of the run; a resume under a different
  /// fingerprint is rejected instead of silently diverging.
  uint64_t config_fingerprint = 0;

  // Loop position: the snapshot is taken AFTER the optimizer step, so
  // `step_in_epoch` counts completed steps of `epoch` and `global_step`
  // counts completed steps of the whole run (pretrain + finetune).
  uint32_t phase = 0;  // GARCIA: 0 = pretrain, 1 = finetune
  uint64_t epoch = 0;
  uint64_t step_in_epoch = 0;
  uint64_t global_step = 0;
  /// Model-defined scalars restored verbatim (e.g. GARCIA's loss probes).
  std::vector<float> diagnostics;

  /// Parameter values in the model's fixed CollectParameters order.
  std::vector<core::Matrix> params;

  // Adam state; moment shapes must match `params` one-to-one.
  int64_t adam_t = 0;
  std::vector<core::Matrix> adam_m;
  std::vector<core::Matrix> adam_v;

  /// Every rng stream of the loop, in a model-fixed order (e.g. GARCIA:
  /// {train rng, sampler rng}). Restoring them is what makes the resumed
  /// batch/negative/sampler draws replay exactly.
  std::vector<core::RngState> rng_streams;

  // Mid-epoch BatchIterator position (finetune phases only).
  bool has_iterator = false;
  uint64_t iterator_cursor = 0;
  std::vector<uint32_t> iterator_order;
};

/// Container section ids, which are also their order in the file (each
/// serialized with its own CRC-32).
enum class CheckpointSectionId : uint32_t {
  kConfig = 1,
  kProgress = 2,
  kParams = 3,
  kOptimizer = 4,
  kRng = 5,
  kIterator = 6,
};

const char* CheckpointSectionName(CheckpointSectionId id);

/// Serializes to the container format. Deterministic: equal checkpoints
/// encode to equal bytes.
std::string EncodeCheckpoint(const TrainCheckpoint& checkpoint);

/// Parses and validates container bytes: the container checks of
/// core::SectionedFile::Decode (magic, version, all six sections in order,
/// sizes, CRCs, no trailing bytes), then each payload's exact consumption
/// and count/size bounds, and shape agreement between params and moments.
/// `origin` names the source in error messages.
core::Result<TrainCheckpoint> DecodeCheckpoint(const std::string& bytes,
                                               const std::string& origin);

/// Atomic write of one checkpoint file (temp + fsync + rename).
core::Status SaveCheckpoint(const std::string& path,
                            const TrainCheckpoint& checkpoint);

/// Reads and decodes one checkpoint file.
core::Result<TrainCheckpoint> LoadCheckpoint(const std::string& path);

/// Hard cap on a checkpoint file (refuses bogus multi-GiB artifacts).
constexpr uint64_t kMaxCheckpointBytes = 1ull << 34;  // 16 GiB

// ------------------------------------------------------------ generations

/// "checkpoint-00000042.gck" for global step 42.
std::string CheckpointFileName(uint64_t global_step);

/// Global steps of the generations in `dir`, ascending. A missing
/// directory is an empty list, not an error. Ignores ".tmp" leftovers and
/// foreign files.
std::vector<uint64_t> ListCheckpointSteps(const std::string& dir);

/// A successfully resumed generation plus what was skipped to reach it.
struct ResumeState {
  TrainCheckpoint checkpoint;
  uint64_t loaded_step = 0;
  /// One human-readable line per newer generation that failed to decode
  /// ("checkpoint-…gck: <status>"); callers log these.
  std::vector<std::string> skipped;
};

/// Newest generation in `dir` that decodes cleanly.
///  * kNotFound        — no generations exist (fresh start).
///  * kInvalidArgument — the newest intact generation carries a different
///                       config fingerprint; resume is refused because the
///                       replayed trajectory would silently diverge.
///  * kIoError         — generations exist but every one is corrupt (the
///                       message lists each failure).
core::Result<ResumeState> LoadLatestCheckpoint(const std::string& dir,
                                               uint64_t expected_fingerprint);

// ---------------------------------------------------------------- manager

struct CheckpointOptions {
  /// Generation directory; empty disables checkpointing entirely.
  std::string dir;
  /// Write a generation every N completed optimizer steps; 0 disables.
  uint64_t every_steps = 0;
  /// Generations kept on disk (older pruned after each write); 0 = all.
  uint64_t keep = 2;
  /// Expected config fingerprint (models::TrainFingerprint of the run).
  uint64_t fingerprint = 0;
  /// Test-only simulated crash; kNone in production.
  CheckpointFaultPlan fault;
};

/// Bridges one training loop to the checkpoint store: resume-at-start,
/// cadenced atomic writes, keep-K pruning, and kill-point injection.
class CheckpointManager {
 public:
  explicit CheckpointManager(CheckpointOptions options);

  bool enabled() const {
    return !options_.dir.empty() && options_.every_steps > 0;
  }

  /// Resumes from the newest intact generation. Returns nullopt for a
  /// fresh start (checkpointing disabled, or no generations yet); logs a
  /// warning for each torn generation that was skipped. Aborts with a
  /// descriptive message when resume must be refused (fingerprint
  /// mismatch, or every generation corrupt) — continuing would either
  /// diverge silently or overwrite state the operator may want to salvage.
  /// Also removes stray ".tmp" files from an interrupted write.
  std::optional<TrainCheckpoint> Resume();

  /// Call after every completed optimizer step (`global_step` is 1-based
  /// and counts all phases). Fires the armed kill-point, and on cadence
  /// boundaries materializes `snapshot` and writes a generation. A failed
  /// write is logged and training continues — a full disk should cost
  /// durability, not the run.
  void AtStepEnd(uint64_t global_step,
                 const std::function<TrainCheckpoint()>& snapshot);

  uint64_t writes() const { return writes_; }

 private:
  void WriteGeneration(uint64_t global_step, const TrainCheckpoint& ck);
  void Prune();
  [[noreturn]] void Kill(uint64_t global_step);

  CheckpointOptions options_;
  uint64_t writes_ = 0;
};

}  // namespace garcia::train

#endif  // GARCIA_TRAIN_CHECKPOINT_H_
