#include "nn/optimizer.h"

#include <cmath>

#include "core/kernels.h"

#if defined(__x86_64__) || defined(__i386__)
#define GARCIA_OPTIMIZER_X86 1
#include <immintrin.h>
#endif

namespace garcia::nn {

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps, float weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Tensor& p : params_) {
    GARCIA_CHECK(p.requires_grad()) << "optimizer given a non-trainable tensor";
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

void Adam::ZeroGrad() {
  for (Tensor& p : params_) p.ZeroGrad();
}

namespace internal {

void AdamUpdateScalar(const AdamCoefficients& k, const float* g, float* w,
                      float* m, float* v, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    float gi = g[i];
    if (k.weight_decay != 0.0f) gi += k.weight_decay * w[i];
    m[i] = k.beta1 * m[i] + (1.0f - k.beta1) * gi;
    v[i] = k.beta2 * v[i] + (1.0f - k.beta2) * gi * gi;
    w[i] -= k.step_size * m[i] / (std::sqrt(v[i]) + k.eps);
  }
}

#if defined(GARCIA_OPTIMIZER_X86)
namespace {

template <bool kDecay>
__attribute__((target("avx2"))) size_t AdamUpdateAvx2Body(
    const AdamCoefficients& k, const float* g, float* w, float* m, float* v,
    size_t n) {
  const __m256 beta1 = _mm256_set1_ps(k.beta1);
  const __m256 one_minus_beta1 = _mm256_set1_ps(1.0f - k.beta1);
  const __m256 beta2 = _mm256_set1_ps(k.beta2);
  const __m256 one_minus_beta2 = _mm256_set1_ps(1.0f - k.beta2);
  const __m256 eps = _mm256_set1_ps(k.eps);
  const __m256 decay = _mm256_set1_ps(k.weight_decay);
  const __m256 step = _mm256_set1_ps(k.step_size);
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 wi = _mm256_loadu_ps(w + i);
    __m256 gi = _mm256_loadu_ps(g + i);
    if constexpr (kDecay) gi = _mm256_add_ps(gi, _mm256_mul_ps(decay, wi));
    const __m256 mi =
        _mm256_add_ps(_mm256_mul_ps(beta1, _mm256_loadu_ps(m + i)),
                      _mm256_mul_ps(one_minus_beta1, gi));
    const __m256 vi = _mm256_add_ps(
        _mm256_mul_ps(beta2, _mm256_loadu_ps(v + i)),
        _mm256_mul_ps(_mm256_mul_ps(one_minus_beta2, gi), gi));
    _mm256_storeu_ps(m + i, mi);
    _mm256_storeu_ps(v + i, vi);
    const __m256 denom = _mm256_add_ps(_mm256_sqrt_ps(vi), eps);
    const __m256 delta = _mm256_div_ps(_mm256_mul_ps(step, mi), denom);
    _mm256_storeu_ps(w + i, _mm256_sub_ps(wi, delta));
  }
  return i;
}

}  // namespace
#endif  // GARCIA_OPTIMIZER_X86

void AdamUpdateAvx2(const AdamCoefficients& k, const float* g, float* w,
                    float* m, float* v, size_t n) {
  size_t done = 0;
#if defined(GARCIA_OPTIMIZER_X86)
  done = k.weight_decay != 0.0f ? AdamUpdateAvx2Body<true>(k, g, w, m, v, n)
                                : AdamUpdateAvx2Body<false>(k, g, w, m, v, n);
#endif
  AdamUpdateScalar(k, g + done, w + done, m + done, v + done, n - done);
}

}  // namespace internal

void Adam::Step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  const internal::AdamCoefficients k = {
      beta1_, beta2_, eps_, weight_decay_,
      static_cast<float>(lr_ * std::sqrt(bc2) / bc1)};
  const auto update = core::kernels::internal::HasAvx2()
                          ? &internal::AdamUpdateAvx2
                          : &internal::AdamUpdateScalar;
  for (size_t i = 0; i < params_.size(); ++i) {
    Tensor& p = params_[i];
    if (!p.has_grad()) continue;
    core::Matrix& w = p.mutable_value();
    update(k, p.grad().data(), w.data(), m_[i].data(), v_[i].data(),
           w.size());
  }
}

AdamState Adam::ExportState() const {
  AdamState state;
  state.t = t_;
  state.m = m_;
  state.v = v_;
  return state;
}

void Adam::RestoreState(const AdamState& state) {
  GARCIA_CHECK_GE(state.t, 0);
  GARCIA_CHECK_EQ(state.m.size(), params_.size());
  GARCIA_CHECK_EQ(state.v.size(), params_.size());
  for (size_t i = 0; i < params_.size(); ++i) {
    GARCIA_CHECK_EQ(state.m[i].rows(), params_[i].rows());
    GARCIA_CHECK_EQ(state.m[i].cols(), params_[i].cols());
    GARCIA_CHECK_EQ(state.v[i].rows(), params_[i].rows());
    GARCIA_CHECK_EQ(state.v[i].cols(), params_[i].cols());
  }
  t_ = state.t;
  m_ = state.m;
  v_ = state.v;
}

double ClipGradNorm(const std::vector<Tensor>& params, double max_norm) {
  double sq = 0.0;
  for (const Tensor& p : params) {
    if (!p.has_grad()) continue;
    const core::Matrix& g = p.grad();
    for (size_t k = 0; k < g.size(); ++k) {
      sq += static_cast<double>(g.data()[k]) * g.data()[k];
    }
  }
  const double norm = std::sqrt(sq);
  if (norm > max_norm && norm > 0.0) {
    const float scale = static_cast<float>(max_norm / norm);
    for (const Tensor& p : params) {
      if (!p.has_grad()) continue;
      const_cast<core::Matrix&>(p.grad()).Scale(scale);
    }
  }
  return norm;
}

}  // namespace garcia::nn
