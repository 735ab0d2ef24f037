#include "nn/loss.h"

#include <cmath>

#include "core/kernels.h"
#include "nn/ops.h"

namespace garcia::nn {

namespace kernels = core::kernels;

using core::Matrix;
using internal::TensorNode;

Tensor CrossEntropyWithLogits(const Tensor& logits,
                              const std::vector<uint32_t>& targets) {
  const size_t n = logits.rows();
  GARCIA_CHECK_EQ(targets.size(), n);
  GARCIA_CHECK_GT(n, 0u);
  // Forward: softmax rows in place (kernel), cached for the backward pass.
  Matrix softmax = logits.value();
  const double loss = kernels::CrossEntropyForward(&softmax, targets);
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / n);
  const float inv_n = 1.0f / static_cast<float>(n);
  return Tensor::FromOp(
      std::move(out), {logits},
      [softmax = std::move(softmax), targets, inv_n](TensorNode* node) {
        TensorNode* p = node->parents[0].get();
        if (!p->requires_grad) return;
        const float gout = node->grad.at(0, 0) * inv_n;
        kernels::CrossEntropyBackwardAdd(softmax, targets, gout,
                                         &p->EnsureGrad());
      });
}

Tensor InfoNce(const Tensor& anchors, const Tensor& candidates,
               const std::vector<uint32_t>& targets, float tau) {
  GARCIA_CHECK_GT(tau, 0.0f);
  Tensor a = L2NormalizeRows(anchors);
  Tensor c = L2NormalizeRows(candidates);
  Tensor sims = Scale(MatMulNT(a, c), 1.0f / tau);
  return CrossEntropyWithLogits(sims, targets);
}

Tensor MaskedInfoNce(const Tensor& anchors, const Tensor& candidates,
                     const std::vector<uint32_t>& targets,
                     const core::Matrix& mask, float tau) {
  GARCIA_CHECK_GT(tau, 0.0f);
  GARCIA_CHECK_EQ(mask.rows(), anchors.rows());
  GARCIA_CHECK_EQ(mask.cols(), candidates.rows());
  for (size_t i = 0; i < targets.size(); ++i) {
    GARCIA_CHECK_GT(mask.at(i, targets[i]), 0.0f)
        << "positive candidate masked out for anchor " << i;
  }
  Tensor a = L2NormalizeRows(anchors);
  Tensor c = L2NormalizeRows(candidates);
  Tensor sims = Scale(MatMulNT(a, c), 1.0f / tau);
  // Additive -inf style mask: excluded candidates get a large negative
  // constant, vanishing from the softmax denominator.
  Matrix penalty(mask.rows(), mask.cols());
  for (size_t i = 0; i < mask.rows(); ++i) {
    for (size_t j = 0; j < mask.cols(); ++j) {
      penalty.at(i, j) = mask.at(i, j) > 0.0f ? 0.0f : -1e9f;
    }
  }
  Tensor masked = Add(sims, Tensor::Constant(std::move(penalty)));
  return CrossEntropyWithLogits(masked, targets);
}

Tensor BceWithLogits(const Tensor& logits, const core::Matrix& targets) {
  const size_t n = logits.rows(), m = logits.cols();
  GARCIA_CHECK_EQ(targets.rows(), n);
  GARCIA_CHECK_EQ(targets.cols(), m);
  GARCIA_CHECK_GT(n * m, 0u);
  double loss = 0.0;
  Matrix dz(n, m);  // sigmoid(z) - y, cached for backward
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < m; ++j) {
      const double z = logits.value().at(i, j);
      const double y = targets.at(i, j);
      loss += std::max(z, 0.0) - z * y + std::log1p(std::exp(-std::fabs(z)));
      dz.at(i, j) = static_cast<float>(StableSigmoid(z) - y);
    }
  }
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(loss / (n * m));
  const float inv = 1.0f / static_cast<float>(n * m);
  return Tensor::FromOp(std::move(out), {logits},
                        [dz = std::move(dz), inv](TensorNode* node) {
                          TensorNode* p = node->parents[0].get();
                          if (!p->requires_grad) return;
                          const float gout = node->grad.at(0, 0) * inv;
                          Matrix g = dz;
                          g.Scale(gout);
                          p->AccumulateGrad(g);
                        });
}

}  // namespace garcia::nn
