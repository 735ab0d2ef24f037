// Copyright (c) 2026 GARCIA reproduction authors.
// SGL baseline (Wu et al., SIGIR'21): LightGCN plus a self-supervised
// InfoNCE between two stochastically edge-dropped graph views.

#ifndef GARCIA_MODELS_SGL_H_
#define GARCIA_MODELS_SGL_H_

#include <string>

#include "models/lightgcn.h"

namespace garcia::models {

class Sgl : public LightGcn {
 public:
  explicit Sgl(const TrainConfig& config) : LightGcn(config) {}

  std::string name() const override { return "SGL"; }

 protected:
  nn::Tensor AuxiliaryLoss(core::Rng* rng) override;
};

}  // namespace garcia::models

#endif  // GARCIA_MODELS_SGL_H_
