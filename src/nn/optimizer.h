// Copyright (c) 2026 GARCIA reproduction authors.
// The Adam optimizer over leaf parameter tensors, and gradient clipping.

#ifndef GARCIA_NN_OPTIMIZER_H_
#define GARCIA_NN_OPTIMIZER_H_

#include <vector>

#include "nn/tensor.h"

namespace garcia::nn {

/// The complete mutable state of an Adam instance: the step count driving
/// bias correction plus both moment estimates, in parameter order.
/// Serialized into training checkpoints; restoring it makes the next
/// Step() bit-identical to the one the snapshotted optimizer would take.
struct AdamState {
  int64_t t = 0;
  std::vector<core::Matrix> m;
  std::vector<core::Matrix> v;
};

/// Adam (Kingma & Ba) with optional decoupled weight decay over a list of
/// leaf parameter tensors. The paper trains every model with Adam.
class Adam {
 public:
  Adam(std::vector<Tensor> params, float lr, float beta1 = 0.9f,
       float beta2 = 0.999f, float eps = 1e-8f, float weight_decay = 0.0f);

  /// Applies one update from the currently accumulated gradients.
  /// Parameters without an accumulated gradient are skipped.
  void Step();

  /// Zeroes accumulated gradients (keeps allocations).
  void ZeroGrad();

  const std::vector<Tensor>& params() const { return params_; }

  /// Snapshot of t and both moment vectors (checkpointing).
  AdamState ExportState() const;

  /// Restores a snapshot taken by ExportState. The moment shapes must
  /// match this optimizer's parameters (callers validate checkpoints
  /// against the live model before restoring).
  void RestoreState(const AdamState& state);

 private:
  std::vector<Tensor> params_;
  float lr_, beta1_, beta2_, eps_, weight_decay_;
  int64_t t_ = 0;
  std::vector<core::Matrix> m_;
  std::vector<core::Matrix> v_;
};

namespace internal {

/// One Adam update's scalar coefficients (step_size folds in the learning
/// rate and both bias corrections).
struct AdamCoefficients {
  float beta1, beta2, eps, weight_decay, step_size;
};

/// Adam's elementwise update over n floats, in place on w, m and v:
///   g' = weight_decay != 0 ? g + weight_decay * w : g
///   m  = beta1 * m + (1 - beta1) * g'
///   v  = beta2 * v + ((1 - beta2) * g') * g'
///   w  = w - (step_size * m) / (sqrt(v) + eps)
/// each operation rounded to float in that order. The portable scalar loop.
void AdamUpdateScalar(const AdamCoefficients& k, const float* g, float* w,
                      float* m, float* v, size_t n);

/// The same update eight floats at a time on AVX2, with a scalar tail; no
/// FMA, and vector sqrt and divide round exactly as the scalar ones, so
/// w, m and v are bit-identical to AdamUpdateScalar's. Requires
/// core::kernels::internal::HasAvx2(); off x86 it is the scalar loop.
void AdamUpdateAvx2(const AdamCoefficients& k, const float* g, float* w,
                    float* m, float* v, size_t n);

}  // namespace internal

/// Rescales gradients so their global L2 norm is at most max_norm.
/// Returns the pre-clip norm.
double ClipGradNorm(const std::vector<Tensor>& params, double max_norm);

}  // namespace garcia::nn

#endif  // GARCIA_NN_OPTIMIZER_H_
