// Copyright (c) 2026 GARCIA reproduction authors.
// SimGCL baseline (Yu et al., SIGIR'22): graph-augmentation-free contrastive
// learning — the two views perturb every propagation layer with scaled,
// sign-aligned uniform noise instead of dropping edges.

#ifndef GARCIA_MODELS_SIMGCL_H_
#define GARCIA_MODELS_SIMGCL_H_

#include <string>

#include "models/lightgcn.h"

namespace garcia::models {

class SimGcl : public LightGcn {
 public:
  explicit SimGcl(const TrainConfig& config) : LightGcn(config) {}

  std::string name() const override { return "SimSGL"; }  // paper's spelling

 protected:
  nn::Tensor AuxiliaryLoss(core::Rng* rng) override;

 private:
  /// One noisy propagation pass.
  nn::Tensor NoisyView(const nn::Tensor& z0, core::Rng* rng) const;
};

}  // namespace garcia::models

#endif  // GARCIA_MODELS_SIMGCL_H_
