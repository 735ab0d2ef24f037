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

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "core/taskgraph.h"
#include "data/scenario.h"
#include "eval/metrics.h"
#include "nn/optimizer.h"
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
  /// Worker threads for the kernel execution layer (core/kernels.h).
  /// 0 = serial (no thread pool is created); any value >= 1 routes compute
  /// through ExecutionContext. The parallel backend is bit-identical to
  /// serial, so this changes wall-clock only, never losses or embeddings.
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
  /// Pipelined training (core/taskgraph.h, DESIGN.md §5j). 0 (the default)
  /// is the legacy barriered loop: each step plans, samples, encodes, and
  /// steps strictly in sequence. >= 1 runs step t+1's planning — rng
  /// draws, NeighborSampler expansion, graph::Block packing — as a
  /// task-graph node overlapping step t's encode/backward GEMMs (the
  /// implementation looks at most one step ahead, so every value >= 1
  /// behaves identically). The lookahead touches only loop state the
  /// compute phase never reads (rng streams, batch iterator), and both rng
  /// streams see the exact draw sequence of the barriered loop, so the
  /// trajectory — parameters, losses, checkpoint bytes — is bit-identical
  /// for any depth and thread count. Like num_threads, this changes
  /// wall-clock only and is excluded from TrainFingerprint.
  /// (Models whose compute phase itself draws rng — SGL / SimGCL auxiliary
  /// views — ignore the knob and always run barriered.)
  size_t pipeline_depth = 0;

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
/// num_threads and pipeline_depth (parallel and pipelined execution are
/// bit-identical to the serial reference) and the checkpoint/fault knobs
/// themselves (cadence may change across restarts). The hash depends only
/// on the values mixed in, not on TrainConfig's layout; any change to what
/// is mixed in orphans every checkpoint generation already on disk.
uint64_t TrainFingerprint(const TrainConfig& cfg, const std::string& model_name,
                          const data::Scenario& scenario);

/// Copies the current parameter values, in order (checkpoint snapshot).
std::vector<core::Matrix> SnapshotParameterValues(
    const std::vector<nn::Tensor>& params);

/// Writes snapshotted values back into the live parameter tensors; shapes
/// must match (the checkpoint was validated against this config's
/// fingerprint, so a mismatch is an internal error).
void RestoreParameterValues(const std::vector<nn::Tensor>& params,
                            const std::vector<core::Matrix>& values);

/// Restores the model/optimizer half of a decoded checkpoint: parameter
/// values and Adam state. Rng streams and iterator position are restored
/// by the caller at its phase-specific resume point.
void RestoreTrainState(const train::TrainCheckpoint& ck,
                       const std::vector<nn::Tensor>& params, nn::Adam* opt);

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

/// Checkpoint-relevant stochastic state captured when a step is PLANNED
/// rather than read live when its snapshot is written (DESIGN.md §5j).
/// Under pipelined training the next step's lookahead may already be
/// advancing the rng streams and the batch iterator by the time
/// CheckpointManager::AtStepEnd fires, so snapshots read this capture. On
/// the barriered path nothing draws between a step's planning and its end,
/// so the capture equals the live state and the checkpoint bytes are
/// identical either way.
struct PlannedStepState {
  std::vector<core::RngState> rng_streams;
  bool has_iterator = false;
  uint64_t iterator_cursor = 0;
  /// Only captured when the loop's CheckpointManager is enabled — it is
  /// the one per-step copy whose size grows with the training set.
  std::vector<uint32_t> iterator_order;
};

/// Runs one epoch's step stream with optional one-step lookahead.
///
/// `produce(step)` draws everything stochastic about a step (batches,
/// negatives, sampled blocks) plus its PlannedStepState and returns
/// nullopt when the stream is exhausted; `consume(step, work)` runs the
/// step's encode/loss/backward/optimizer phase. Steps run for
/// step = first_step, first_step+1, ... while produce yields work and
/// step < max_steps (0 = unbounded).
///
/// Barriered mode (pipelined = false) interleaves them exactly like the
/// legacy loops: produce(t), consume(t), produce(t+1), ... Pipelined mode
/// hands produce(t+1) to a core::TaskGraph node on `pool` before
/// consume(t) starts, so next-step sampling and block packing overlap this
/// step's GEMMs, and joins it through a core::Promise afterwards — a
/// two-slot double buffer (one Work being consumed, one being produced).
/// Lookahead is never launched past max_steps or after an exhausted
/// produce, so the rng streams see exactly the draws of the barriered
/// loop: produce draws nothing the barriered path would not also draw.
/// With a null/absent pool the task-graph node runs inline at launch,
/// which only moves produce(t+1) before consume(t) — bit-identical as long
/// as consume draws no rng, which is the precondition for enabling
/// pipelining at all (see TrainConfig::pipeline_depth).
///
/// Returns the index one past the last consumed step. Exception-safe: if
/// consume throws (e.g. the checkpoint kill-point harness), the in-flight
/// lookahead is joined before the caller's frame unwinds.
template <typename ProduceFn, typename ConsumeFn>
size_t RunPipelinedSteps(core::ThreadPool* pool, bool pipelined,
                         size_t first_step, size_t max_steps,
                         ProduceFn&& produce, ConsumeFn&& consume) {
  const auto runnable = [max_steps](size_t step) {
    return max_steps == 0 || step < max_steps;
  };
  size_t step = first_step;
  if (!runnable(step)) return step;
  using Work = typename decltype(produce(step))::value_type;
  using Slot = core::Promise<std::optional<Work>>;
  // Joined (WaitAll) before this frame unwinds, so a lookahead launched
  // right before a consume-thrown exception cannot outlive the loop state
  // it captures.
  core::TaskGraph lookahead(pipelined ? pool : nullptr);
  std::optional<Work> work = produce(step);
  while (work.has_value()) {
    std::shared_ptr<Slot> next;
    if (pipelined && runnable(step + 1)) {
      next = std::make_shared<Slot>();
      const size_t next_step = step + 1;
      lookahead.Add(
          [&produce, next, next_step] { next->Set(produce(next_step)); });
    }
    consume(step, *work);
    ++step;
    if (!runnable(step)) break;  // next was never launched past the cap
    work = next != nullptr ? next->Take() : produce(step);
  }
  return step;
}

}  // namespace garcia::models

#endif  // GARCIA_MODELS_COMMON_H_
