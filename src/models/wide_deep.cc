#include "models/wide_deep.h"

#include <cmath>

#include "core/logging.h"
#include "nn/ops.h"

namespace garcia::models {

using core::Matrix;
using nn::Tensor;

WideDeep::WideDeep(const TrainConfig& config)
    : cfg_(config), rng_(config.seed), exec_(config.num_threads) {}

WideDeep::~WideDeep() = default;

Matrix WideDeep::WideFeatures(const std::vector<data::Example>& examples,
                              const std::vector<uint32_t>& batch) const {
  const graph::SearchGraph& g = scenario_->graph;
  const size_t a = g.attr_dim();
  Matrix out(batch.size(), 3 * a);
  for (size_t i = 0; i < batch.size(); ++i) {
    const data::Example& ex = examples[batch[i]];
    const float* qa = g.attributes().row(g.QueryNode(ex.query));
    const float* sa = g.attributes().row(g.ServiceNode(ex.service));
    for (size_t k = 0; k < a; ++k) {
      out.at(i, k) = qa[k];
      out.at(i, a + k) = sa[k];
      out.at(i, 2 * a + k) = qa[k] * sa[k];  // crossed features
    }
  }
  return out;
}

Tensor WideDeep::BatchLogits(const std::vector<data::Example>& examples,
                             const std::vector<uint32_t>& batch) const {
  std::vector<uint32_t> q_ids, s_ids;
  q_ids.reserve(batch.size());
  s_ids.reserve(batch.size());
  for (uint32_t bi : batch) {
    q_ids.push_back(examples[bi].query);
    s_ids.push_back(examples[bi].service);
  }
  Tensor wide_in = Tensor::Constant(WideFeatures(examples, batch));
  Tensor wide_logit = wide_->Forward(wide_in);
  Tensor deep_in = nn::ConcatCols(
      nn::ConcatCols(query_embedding_->Forward(q_ids),
                     service_embedding_->Forward(s_ids)),
      wide_in);
  Tensor deep_logit = deep_->Forward(deep_in);
  return nn::Add(wide_logit, deep_logit);
}

void WideDeep::Fit(const data::Scenario& s) {
  core::ScopedExecution exec_scope(&exec_);
  scenario_ = &s;
  const size_t d = cfg_.embedding_dim;
  const size_t a = s.graph.attr_dim();
  query_embedding_ = std::make_unique<nn::Embedding>(s.num_queries(), d,
                                                     &rng_);
  service_embedding_ =
      std::make_unique<nn::Embedding>(s.num_services(), d, &rng_);
  wide_ = std::make_unique<nn::Linear>(3 * a, 1, &rng_);
  deep_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{2 * d + 3 * a, d, 1}, &rng_);

  std::vector<Tensor> params = query_embedding_->Parameters();
  auto append = [&params](const std::vector<Tensor>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  append(service_embedding_->Parameters());
  append(wide_->Parameters());
  append(deep_->Parameters());

  nn::Adam opt(params, cfg_.learning_rate);
  const size_t epochs = cfg_.finetune_epochs + cfg_.pretrain_epochs;
  BatchIterator it(s.train.size(), cfg_.batch_size, &rng_);

  // Crash-safe checkpointing (DESIGN.md §5h); resume lands here, after
  // every construction-time rng draw. Single phase, single rng stream.
  train::CheckpointManager ckpt(train::CheckpointOptions{
      cfg_.checkpoint_dir, cfg_.checkpoint_every_steps, cfg_.checkpoint_keep,
      TrainFingerprint(cfg_, name(), s), cfg_.checkpoint_fault});
  std::optional<train::TrainCheckpoint> resume = ckpt.Resume();
  uint64_t global_step = 0;
  size_t start_epoch = 0;
  size_t start_steps = 0;
  bool mid_epoch_resume = false;
  if (resume) {
    GARCIA_CHECK_EQ(resume->rng_streams.size(), 1u);
    GARCIA_CHECK(resume->has_iterator);
    RestoreTrainState(*resume, params, &opt);
    rng_.RestoreState(resume->rng_streams[0]);
    it.Restore(resume->iterator_order, resume->iterator_cursor);
    global_step = resume->global_step;
    start_epoch = resume->epoch;
    start_steps = resume->step_in_epoch;
    mid_epoch_resume = true;
  }
  auto snapshot = [&](uint64_t epoch, uint64_t step_in_epoch) {
    train::TrainCheckpoint ck;
    ck.phase = 0;
    ck.epoch = epoch;
    ck.step_in_epoch = step_in_epoch;
    ck.params = SnapshotParameterValues(params);
    nn::AdamState adam = opt.ExportState();
    ck.adam_t = adam.t;
    ck.adam_m = std::move(adam.m);
    ck.adam_v = std::move(adam.v);
    ck.rng_streams = {rng_.ExportState()};
    ck.has_iterator = true;
    ck.iterator_cursor = it.cursor();
    ck.iterator_order = it.order();
    return ck;
  };

  for (size_t epoch = start_epoch; epoch < epochs; ++epoch) {
    size_t step = 0;
    if (mid_epoch_resume) {
      mid_epoch_resume = false;
      step = start_steps;
    } else {
      it.Reset();
    }
    const size_t max_steps = cfg_.max_batches_per_epoch;
    double epoch_loss = 0.0;
    std::vector<uint32_t> batch;
    while ((max_steps == 0 || step < max_steps) &&
           !(batch = it.Next()).empty()) {
      Matrix labels(batch.size(), 1);
      for (size_t i = 0; i < batch.size(); ++i) {
        labels.at(i, 0) = s.train[batch[i]].label;
      }
      opt.ZeroGrad();
      Tensor logits = BatchLogits(s.train, batch);
      Tensor loss = nn::BceWithLogits(logits, labels);
      loss.Backward();
      nn::ClipGradNorm(params, 5.0);
      opt.Step();
      epoch_loss += loss.scalar();
      ++global_step;
      ++step;
      ckpt.AtStepEnd(global_step, [&] { return snapshot(epoch, step); });
    }
    GARCIA_LOG(Debug) << name() << " epoch " << epoch
                      << " loss=" << (step ? epoch_loss / step : 0.0);
  }
  fitted_ = true;
}

std::vector<float> WideDeep::Predict(
    const data::Scenario& s, const std::vector<data::Example>& examples) {
  GARCIA_CHECK(fitted_) << "Fit must run before Predict";
  GARCIA_CHECK(scenario_ == &s);
  if (examples.empty()) return {};
  core::ScopedExecution exec_scope(&exec_);
  std::vector<uint32_t> batch(examples.size());
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<uint32_t>(i);
  Tensor logits = BatchLogits(examples, batch);
  std::vector<float> scores(examples.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = nn::StableSigmoid(logits.value().at(i, 0));
  }
  return scores;
}

}  // namespace garcia::models
