#include "models/wide_deep.h"

#include <cmath>

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

  // Resume, the optimizer step and snapshots live in TrainLoop (DESIGN.md
  // §5h); one phase over the full epoch budget, one rng stream.
  TrainLoop loop(cfg_, name(), s, params, {&rng_}, {}, /*num_phases=*/1);
  BatchIterator it(s.train.size(), cfg_.batch_size, &rng_);
  const TrainPhase phase{/*id=*/0,
                         cfg_.finetune_epochs + cfg_.pretrain_epochs,
                         cfg_.max_batches_per_epoch, &it};
  loop.Run(phase, [&](const std::vector<uint32_t>& batch) {
    Matrix labels(batch.size(), 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      labels.at(i, 0) = s.train[batch[i]].label;
    }
    return nn::BceWithLogits(BatchLogits(s.train, batch), labels);
  });
  fitted_ = true;
}

std::vector<float> WideDeep::Predict(
    const data::Scenario& s, const std::vector<data::Example>& examples) {
  GARCIA_CHECK(fitted_) << "Fit must run before Predict";
  GARCIA_CHECK(scenario_ == &s);
  if (examples.empty()) return {};
  core::ScopedExecution exec_scope(&exec_);
  nn::NoGradScope no_grad;
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
