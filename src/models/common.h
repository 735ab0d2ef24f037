// Copyright (c) 2026 GARCIA reproduction authors.
// Shared model interface, hyper-parameters, and training helpers.
//
// Every ranking model (GARCIA and the five baselines) trains on a
// data::Scenario and scores (query, service) examples. Hyper-parameters
// follow the paper's implementation details (Sec. V-B3): embedding size 64,
// batch size 1024, Adam, L=2, H=5, alpha=0.1, beta=0.01, tau=0.1. Defaults
// here are scaled for the ~1000x smaller synthetic datasets (dim 32, higher
// lr); the paper values are noted inline.

#ifndef GARCIA_MODELS_COMMON_H_
#define GARCIA_MODELS_COMMON_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/heap_retention.h"
#include "core/rng.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "train/checkpoint.h"

namespace garcia::models {

/// Hyper-parameters shared across models; GARCIA-specific knobs included so
/// ablation benches can toggle them.
struct TrainConfig {
  size_t embedding_dim = 32;  // paper: 64
  size_t num_layers = 2;      // L (paper: 2)
  float learning_rate = 3e-3f;  // paper: 1e-4 at production scale
  size_t batch_size = 1024;   // paper: 1024
  size_t finetune_epochs = 6;
  size_t pretrain_epochs = 4;
  /// Caps steps per epoch so full-graph encodings stay affordable;
  /// 0 = no cap.
  size_t max_batches_per_epoch = 24;
  uint64_t seed = 7;
  /// Worker threads that shard the GEMMs (core/kernels.h); every other
  /// kernel runs serially. 0 or 1 = serial (no thread pool is created).
  /// The sharded GEMM is bit-identical to serial, so this changes
  /// wall-clock only, never losses or embeddings.
  size_t num_threads = 0;
  /// Per-destination neighbor fanout for minibatch sampled-subgraph
  /// training (graph::NeighborSampler, DESIGN.md §5e). 0 = full-graph
  /// training (every step encodes the whole graph, the pre-sampling
  /// behavior, bit for bit); >= 1 trains each step on an L-hop block
  /// sampled from that step's batch, keeping at most this many incoming
  /// edges per destination. Predict/Export always use the full graph.
  size_t sample_fanout = 0;
  /// Seed of the dedicated sampler rng stream. Kept separate from `seed`
  /// so turning sampling on never shifts batch order or negative draws.
  uint64_t sample_seed = 1013;

  // Multi-granularity contrastive learning (Eq. 11).
  float tau = 0.1f;    // temperature (paper: 0.1)
  float alpha = 0.1f;  // SECL weight (paper: 0.1)
  float beta = 0.01f;  // IGCL weight (paper: 0.01)
  size_t cl_batch_size = 256;  // entities sampled per CL term per step

  // Intention tree.
  size_t tree_levels = 5;  // H (paper: 5)

  // Ablation toggles (Figs. 3, 4, 7).
  bool use_ktcl = true;
  bool use_secl = true;
  bool use_igcl = true;
  bool use_intention = true;   // false = no intention encoder at all
  bool share_encoders = false;  // true = GARCIA-Share (Fig. 3)
  bool use_attention = true;   // false = uniform 1/deg aggregation
  /// KTCL semantic-relevance scorer for anchor mining: token Jaccard
  /// (default) or the character-n-gram embedding encoder (the paper's
  /// future-work slot for a text model such as BERT).
  bool ktcl_ngram_mining = false;

  // Baseline-specific.
  float ssl_weight = 0.1f;     // SGL / SimGCL auxiliary loss weight
  float edge_dropout = 0.2f;   // SGL view augmentation
  float simgcl_eps = 0.1f;     // SimGCL noise magnitude

  // Serving variant: score with inner product instead of the MLP head
  // (the paper's online deployment, Sec. V-F1).
  bool inner_product_head = false;

  // Crash-safe checkpointing (train/checkpoint.h, DESIGN.md §5h).
  /// Generation directory; empty (the default) disables checkpointing.
  std::string checkpoint_dir;
  /// Write a generation every N completed optimizer steps (counted across
  /// all phases); 0 disables.
  uint64_t checkpoint_every_steps = 0;
  /// Generations kept on disk; older ones are pruned after each write.
  uint64_t checkpoint_keep = 2;
  /// Test-only simulated-crash plan; kNone in production. Like
  /// num_threads, this never affects the training trajectory, so it is
  /// excluded from TrainFingerprint.
  train::CheckpointFaultPlan checkpoint_fault;
};

/// FNV-1a fingerprint of every TrainConfig field that shapes the training
/// trajectory, plus the model name and the scenario dimensions. Stored in
/// each checkpoint; resume under a different fingerprint is refused
/// because the replayed trajectory would silently diverge. Excludes
/// num_threads (parallel execution is bit-identical to the serial
/// reference) and the checkpoint/fault knobs themselves (cadence may
/// change across restarts). The hash depends only on the values mixed in,
/// not on TrainConfig's layout; any change to what is mixed in orphans
/// every checkpoint generation already on disk.
uint64_t TrainFingerprint(const TrainConfig& cfg, const std::string& model_name,
                          const data::Scenario& scenario);

/// A trained ranking model.
class RankingModel {
 public:
  virtual ~RankingModel() = default;

  virtual std::string name() const = 0;

  /// Trains on the scenario's train split (and uses validation only for
  /// monitoring). Must be called before Predict.
  virtual void Fit(const data::Scenario& scenario) = 0;

  /// Click scores (higher = more likely clicked) for examples.
  virtual std::vector<float> Predict(
      const data::Scenario& scenario,
      const std::vector<data::Example>& examples) = 0;

  /// Embeddings for online serving (queries then services, row-aligned with
  /// ids). Models without an embedding space may return empty matrices.
  virtual core::Matrix ExportQueryEmbeddings(const data::Scenario&) {
    return core::Matrix();
  }
  virtual core::Matrix ExportServiceEmbeddings(const data::Scenario&) {
    return core::Matrix();
  }
};

/// Head/tail/overall metrics of a model on one example slice.
eval::SlicedMetrics EvaluateModel(RankingModel* model,
                                  const data::Scenario& scenario,
                                  const std::vector<data::Example>& examples);

/// Yields shuffled mini-batches of example indices.
class BatchIterator {
 public:
  BatchIterator(size_t num_examples, size_t batch_size, core::Rng* rng);

  /// Next batch; empty when the epoch is exhausted.
  std::vector<uint32_t> Next();

  /// Reshuffles and restarts.
  void Reset();

  size_t batches_per_epoch() const;

  // Checkpoint hooks: the exact mid-epoch position, restorable later.
  const std::vector<uint32_t>& order() const { return order_; }
  size_t cursor() const { return cursor_; }
  /// Restores a snapshotted position. `order` must be a permutation of the
  /// same example count this iterator was built over.
  void Restore(const std::vector<uint32_t>& order, size_t cursor);

 private:
  std::vector<uint32_t> order_;
  size_t batch_size_;
  size_t cursor_ = 0;
  core::Rng* rng_;
};

/// One phase of a Fit's schedule: `epochs` passes of at most
/// `steps_per_epoch` optimizer steps each.
struct TrainPhase {
  /// Position in the schedule (GARCIA: 0 = pretrain, 1 = finetune); a Fit
  /// runs its phases in ascending id order, every id once.
  uint32_t id = 0;
  size_t epochs = 0;
  /// Per-epoch step cap; 0 = until the iterator runs dry. A phase without
  /// an iterator needs a nonzero cap.
  size_t steps_per_epoch = 0;
  /// Batch source, reshuffled at the start of every epoch; null for a
  /// phase whose steps draw their own samples (GARCIA pretraining).
  BatchIterator* iterator = nullptr;
};

/// The one training loop behind every model's Fit, and the single owner of
/// the state that must survive a restart (DESIGN.md §5h). It builds the
/// train::CheckpointManager from the TrainConfig, resumes on construction,
/// keeps the global step across phases, runs every optimizer step
/// (ZeroGrad -> step callback -> Backward -> ClipGradNorm(5) -> Adam::Step)
/// and writes the snapshots.
///
/// Resume is replay: the phase a checkpoint names restores parameters,
/// Adam state, the rng streams, the diagnostics and the iterator position
/// at its start — after the caller has built its BatchIterator, whose
/// constructor shuffle the restore overwrites — and every earlier phase is
/// skipped. The resumed epoch continues from the restored position without
/// a Reset; a snapshot from the last step of an epoch re-enters with
/// step == cap and falls through to the next epoch. A checkpoint position
/// this Fit cannot reach is refused with a GARCIA_CHECK naming the field.
///
/// For its lifetime (the rest of the Fit) the loop holds a
/// core::HeapRetention scope, so each step's freed tape stays in the heap
/// for the next step instead of going back to the kernel (DESIGN.md §5p).
class TrainLoop {
 public:
  /// Loss of one step; `batch` holds the step's example indices (empty in
  /// a phase without an iterator). Draws every sample the step needs.
  using StepFn = std::function<nn::Tensor(const std::vector<uint32_t>& batch)>;

  /// `params` in the model's fixed order; `rngs` are every rng stream of
  /// the model, in a fixed order; `diagnostics` are model scalars carried
  /// verbatim in each snapshot; the Fit runs phases 0..num_phases-1.
  TrainLoop(const TrainConfig& cfg, const std::string& model_name,
            const data::Scenario& scenario, std::vector<nn::Tensor> params,
            std::vector<core::Rng*> rngs, std::vector<float*> diagnostics,
            uint32_t num_phases);

  /// Runs one phase with a fresh Adam optimizer, or skips it when the
  /// resumed checkpoint names a later phase.
  void Run(const TrainPhase& phase, const StepFn& step);

  /// Completed optimizer steps of the whole run, across phases.
  uint64_t global_step() const { return global_step_; }

 private:
  /// Steps per epoch of `phase`: its cap, bounded by the iterator's batch
  /// count.
  static size_t EpochSteps(const TrainPhase& phase);
  /// Refuses a checkpoint position `phase` cannot reach, then restores it.
  void Restore(const TrainPhase& phase, nn::Adam* opt);
  train::TrainCheckpoint Snapshot(const TrainPhase& phase, uint64_t epoch,
                                  uint64_t step_in_epoch,
                                  const nn::Adam& opt) const;

  // First member: retention starts before and ends after everything else.
  core::HeapRetention heap_retention_;
  std::string model_name_;
  float learning_rate_;
  std::vector<nn::Tensor> params_;
  std::vector<core::Rng*> rngs_;
  std::vector<float*> diagnostics_;
  uint32_t next_phase_ = 0;
  uint32_t num_phases_;
  train::CheckpointManager ckpt_;
  std::optional<train::TrainCheckpoint> resume_;
  uint64_t global_step_ = 0;
};

}  // namespace garcia::models

#endif  // GARCIA_MODELS_COMMON_H_
