// Copyright (c) 2026 GARCIA reproduction authors.
// Wide&Deep baseline (Cheng et al., 2016): a graph-free CTR model. The wide
// part is a linear model over raw and crossed query/service attributes; the
// deep part is an MLP over id embeddings concatenated with attributes.

#ifndef GARCIA_MODELS_WIDE_DEEP_H_
#define GARCIA_MODELS_WIDE_DEEP_H_

#include <memory>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "models/common.h"
#include "nn/loss.h"
#include "nn/module.h"

namespace garcia::models {

class WideDeep : public RankingModel {
 public:
  explicit WideDeep(const TrainConfig& config);
  ~WideDeep() override;

  std::string name() const override { return "Wide&Deep"; }
  void Fit(const data::Scenario& scenario) override;
  std::vector<float> Predict(
      const data::Scenario& scenario,
      const std::vector<data::Example>& examples) override;

 private:
  /// Wide features of one example: [attr_q || attr_s || attr_q ⊙ attr_s].
  core::Matrix WideFeatures(const std::vector<data::Example>& examples,
                            const std::vector<uint32_t>& batch) const;

  nn::Tensor BatchLogits(const std::vector<data::Example>& examples,
                         const std::vector<uint32_t>& batch) const;

  TrainConfig cfg_;
  core::Rng rng_;
  /// Compute backend (0 threads = serial), installed around Fit / Predict.
  core::ExecutionContext exec_;
  const data::Scenario* scenario_ = nullptr;
  bool fitted_ = false;

  std::unique_ptr<nn::Embedding> query_embedding_;
  std::unique_ptr<nn::Embedding> service_embedding_;
  std::unique_ptr<nn::Linear> wide_;
  std::unique_ptr<nn::Mlp> deep_;
};

}  // namespace garcia::models

#endif  // GARCIA_MODELS_WIDE_DEEP_H_
