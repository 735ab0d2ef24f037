#include "models/common.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "core/logging.h"

namespace garcia::models {

namespace {

// FNV-1a over raw bytes; each field is mixed with its full width so
// distinct configs cannot alias through truncation.
class Fingerprinter {
 public:
  template <typename T>
  void Mix(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      hash_ ^= b;
      hash_ *= 0x100000001b3ULL;
    }
  }

  void Mix(const std::string& s) {
    Mix(static_cast<uint64_t>(s.size()));
    for (char c : s) Mix(c);
  }

  uint64_t hash() const { return hash_; }

 private:
  uint64_t hash_ = 0xcbf29ce484222325ULL;  // FNV offset basis
};

}  // namespace

uint64_t TrainFingerprint(const TrainConfig& cfg, const std::string& model_name,
                          const data::Scenario& scenario) {
  Fingerprinter fp;
  fp.Mix(model_name);
  fp.Mix(static_cast<uint64_t>(cfg.embedding_dim));
  fp.Mix(static_cast<uint64_t>(cfg.num_layers));
  fp.Mix(cfg.learning_rate);
  fp.Mix(static_cast<uint64_t>(cfg.batch_size));
  fp.Mix(static_cast<uint64_t>(cfg.finetune_epochs));
  fp.Mix(static_cast<uint64_t>(cfg.pretrain_epochs));
  fp.Mix(static_cast<uint64_t>(cfg.max_batches_per_epoch));
  fp.Mix(cfg.seed);
  fp.Mix(static_cast<uint64_t>(cfg.sample_fanout));
  fp.Mix(cfg.sample_seed);
  fp.Mix(cfg.tau);
  fp.Mix(cfg.alpha);
  fp.Mix(cfg.beta);
  fp.Mix(static_cast<uint64_t>(cfg.cl_batch_size));
  fp.Mix(static_cast<uint64_t>(cfg.tree_levels));
  fp.Mix(cfg.use_ktcl);
  fp.Mix(cfg.use_secl);
  fp.Mix(cfg.use_igcl);
  fp.Mix(cfg.use_intention);
  fp.Mix(cfg.share_encoders);
  fp.Mix(cfg.use_attention);
  fp.Mix(cfg.ktcl_ngram_mining);
  fp.Mix(cfg.ssl_weight);
  fp.Mix(cfg.edge_dropout);
  fp.Mix(cfg.simgcl_eps);
  fp.Mix(cfg.inner_product_head);
  fp.Mix(static_cast<uint64_t>(scenario.num_queries()));
  fp.Mix(static_cast<uint64_t>(scenario.num_services()));
  fp.Mix(static_cast<uint64_t>(scenario.train.size()));
  return fp.hash();
}

eval::SlicedMetrics EvaluateModel(RankingModel* model,
                                  const data::Scenario& scenario,
                                  const std::vector<data::Example>& examples) {
  std::vector<float> scores = model->Predict(scenario, examples);
  GARCIA_CHECK_EQ(scores.size(), examples.size());
  std::vector<float> labels(examples.size());
  std::vector<uint32_t> qids(examples.size());
  for (size_t i = 0; i < examples.size(); ++i) {
    labels[i] = examples[i].label;
    qids[i] = examples[i].query;
  }
  return eval::ComputeSlicedMetrics(labels, scores, qids,
                                    scenario.split.is_head);
}

BatchIterator::BatchIterator(size_t num_examples, size_t batch_size,
                             core::Rng* rng)
    : order_(num_examples), batch_size_(batch_size), rng_(rng) {
  GARCIA_CHECK_GT(batch_size, 0u);
  std::iota(order_.begin(), order_.end(), 0);
  Reset();
}

std::vector<uint32_t> BatchIterator::Next() {
  if (cursor_ >= order_.size()) return {};
  const size_t end = std::min(order_.size(), cursor_ + batch_size_);
  std::vector<uint32_t> batch(order_.begin() + cursor_, order_.begin() + end);
  cursor_ = end;
  return batch;
}

void BatchIterator::Reset() {
  rng_->Shuffle(&order_);
  cursor_ = 0;
}

size_t BatchIterator::batches_per_epoch() const {
  return (order_.size() + batch_size_ - 1) / batch_size_;
}

void BatchIterator::Restore(const std::vector<uint32_t>& order,
                            size_t cursor) {
  GARCIA_CHECK_EQ(order.size(), order_.size())
      << "checkpoint iterator built over a different example count";
  GARCIA_CHECK_LE(cursor, order.size());
  order_ = order;
  cursor_ = cursor;
}

TrainLoop::TrainLoop(const TrainConfig& cfg, const std::string& model_name,
                     const data::Scenario& scenario,
                     std::vector<nn::Tensor> params,
                     std::vector<core::Rng*> rngs,
                     std::vector<float*> diagnostics, uint32_t num_phases)
    : model_name_(model_name),
      learning_rate_(cfg.learning_rate),
      params_(std::move(params)),
      rngs_(std::move(rngs)),
      diagnostics_(std::move(diagnostics)),
      num_phases_(num_phases),
      ckpt_(train::CheckpointOptions{
          cfg.checkpoint_dir, cfg.checkpoint_every_steps, cfg.checkpoint_keep,
          TrainFingerprint(cfg, model_name, scenario), cfg.checkpoint_fault}),
      resume_(ckpt_.Resume()) {
  if (!resume_) return;
  const train::TrainCheckpoint& ck = *resume_;
  GARCIA_CHECK(ck.phase < num_phases_)
      << "refusing to resume: checkpoint phase " << ck.phase << " is not a "
      << model_name_ << " phase (it runs phases 0.." << num_phases_ - 1
      << ")";
  GARCIA_CHECK(ck.rng_streams.size() == rngs_.size())
      << "refusing to resume: checkpoint carries " << ck.rng_streams.size()
      << " rng_streams, " << model_name_ << " has " << rngs_.size();
  GARCIA_CHECK(ck.diagnostics.size() == diagnostics_.size())
      << "refusing to resume: checkpoint carries " << ck.diagnostics.size()
      << " diagnostics, " << model_name_ << " has " << diagnostics_.size();
  global_step_ = ck.global_step;
}

size_t TrainLoop::EpochSteps(const TrainPhase& phase) {
  if (phase.iterator == nullptr) return phase.steps_per_epoch;
  const size_t batches = phase.iterator->batches_per_epoch();
  return phase.steps_per_epoch == 0 ? batches
                                    : std::min(phase.steps_per_epoch, batches);
}

void TrainLoop::Restore(const TrainPhase& phase, nn::Adam* opt) {
  const train::TrainCheckpoint& ck = *resume_;
  GARCIA_CHECK(ck.epoch < phase.epochs)
      << "refusing to resume: checkpoint epoch " << ck.epoch << " of phase "
      << phase.id << " is past its " << phase.epochs << " epochs";
  GARCIA_CHECK(ck.step_in_epoch <= EpochSteps(phase))
      << "refusing to resume: checkpoint step_in_epoch " << ck.step_in_epoch
      << " exceeds phase " << phase.id << "'s " << EpochSteps(phase)
      << " steps per epoch";
  GARCIA_CHECK(ck.has_iterator == (phase.iterator != nullptr))
      << "refusing to resume: checkpoint has_iterator=" << ck.has_iterator
      << " but phase " << phase.id << " of " << model_name_
      << (phase.iterator != nullptr ? " draws" : " does not draw")
      << " batches from an iterator";

  // Shapes were fixed by the fingerprint, so a mismatch is internal.
  GARCIA_CHECK_EQ(ck.params.size(), params_.size())
      << "checkpoint parameter count mismatch";
  for (size_t i = 0; i < params_.size(); ++i) {
    GARCIA_CHECK_EQ(ck.params[i].rows(), params_[i].rows());
    GARCIA_CHECK_EQ(ck.params[i].cols(), params_[i].cols());
    params_[i].mutable_value() = ck.params[i];
  }
  nn::AdamState adam;
  adam.t = ck.adam_t;
  adam.m = ck.adam_m;
  adam.v = ck.adam_v;
  opt->RestoreState(adam);
  for (size_t i = 0; i < rngs_.size(); ++i) {
    rngs_[i]->RestoreState(ck.rng_streams[i]);
  }
  for (size_t i = 0; i < diagnostics_.size(); ++i) {
    *diagnostics_[i] = ck.diagnostics[i];
  }
  if (phase.iterator != nullptr) {
    phase.iterator->Restore(ck.iterator_order, ck.iterator_cursor);
  }
}

train::TrainCheckpoint TrainLoop::Snapshot(const TrainPhase& phase,
                                           uint64_t epoch,
                                           uint64_t step_in_epoch,
                                           const nn::Adam& opt) const {
  train::TrainCheckpoint ck;
  ck.phase = phase.id;
  ck.epoch = epoch;
  ck.step_in_epoch = step_in_epoch;
  for (const float* d : diagnostics_) ck.diagnostics.push_back(*d);
  ck.params.reserve(params_.size());
  for (const nn::Tensor& p : params_) ck.params.push_back(p.value());
  nn::AdamState adam = opt.ExportState();
  ck.adam_t = adam.t;
  ck.adam_m = std::move(adam.m);
  ck.adam_v = std::move(adam.v);
  for (const core::Rng* rng : rngs_) {
    ck.rng_streams.push_back(rng->ExportState());
  }
  if (phase.iterator != nullptr) {
    ck.has_iterator = true;
    ck.iterator_cursor = phase.iterator->cursor();
    ck.iterator_order = phase.iterator->order();
  }
  return ck;
}

void TrainLoop::Run(const TrainPhase& phase, const StepFn& step_fn) {
  GARCIA_CHECK_EQ(phase.id, next_phase_) << "phases must run in id order";
  GARCIA_CHECK_LT(phase.id, num_phases_);
  GARCIA_CHECK(phase.iterator != nullptr || phase.steps_per_epoch > 0)
      << "a phase without an iterator needs a step cap";
  GARCIA_CHECK(!nn::NoGradScope::Active())
      << "training inside an nn::NoGradScope: the loss would have no "
         "gradient";
  ++next_phase_;
  // A checkpoint from a later phase already holds this phase's work.
  if (resume_ && resume_->phase > phase.id) return;

  nn::Adam opt(params_, learning_rate_);
  size_t epoch = 0;
  size_t step = 0;
  bool resumed_epoch = false;
  if (resume_) {
    Restore(phase, &opt);
    epoch = resume_->epoch;
    step = resume_->step_in_epoch;
    resumed_epoch = true;
    resume_.reset();
  }
  const size_t steps = EpochSteps(phase);
  for (; epoch < phase.epochs; ++epoch) {
    // The resumed epoch continues from the restored position; a Reset
    // would burn a shuffle the uninterrupted run never drew.
    if (!resumed_epoch) {
      step = 0;
      if (phase.iterator != nullptr) phase.iterator->Reset();
    }
    resumed_epoch = false;
    double epoch_loss = 0.0;
    size_t epoch_steps = 0;
    for (; step < steps; ++step) {
      std::vector<uint32_t> batch;
      if (phase.iterator != nullptr &&
          (batch = phase.iterator->Next()).empty()) {
        break;
      }
      // ZeroGrad draws no rng, so it may precede the step's planning.
      opt.ZeroGrad();
      nn::Tensor loss = step_fn(batch);
      loss.Backward();
      nn::ClipGradNorm(params_, 5.0);
      opt.Step();
      epoch_loss += loss.scalar();
      ++epoch_steps;
      ++global_step_;
      // Nothing draws between the optimizer update and the snapshot, so it
      // reads the live rng streams and iterator.
      ckpt_.AtStepEnd(global_step_, [&] {
        return Snapshot(phase, epoch, step + 1, opt);
      });
    }
    GARCIA_LOG(Debug) << model_name_ << " phase " << phase.id << " epoch "
                      << epoch << " loss="
                      << (epoch_steps ? epoch_loss / epoch_steps : 0.0);
  }
}

}  // namespace garcia::models
