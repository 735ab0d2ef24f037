#include "nn/optimizer.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "core/kernels.h"
#include "core/rng.h"
#include "nn/loss.h"
#include "nn/module.h"
#include "nn/ops.h"

namespace garcia::nn {
namespace {

using core::Matrix;
using core::Rng;

// loss(w) = sum((w - target)^2); unique minimum at w == target.
Tensor QuadraticLoss(const Tensor& w, const Matrix& target) {
  Tensor diff = Sub(w, Tensor::Constant(target));
  return SumAll(Mul(diff, diff));
}

TEST(AdamTest, ConvergesOnQuadratic) {
  Rng rng(2);
  Tensor w = Tensor::Leaf(Matrix::Randn(4, 2, &rng), true);
  Matrix target = Matrix::Randn(4, 2, &rng);
  Adam opt({w}, 0.05f);
  for (int i = 0; i < 500; ++i) {
    opt.ZeroGrad();
    QuadraticLoss(w, target).Backward();
    opt.Step();
  }
  Matrix diff = w.value();
  diff.Sub(target);
  EXPECT_LT(diff.FrobeniusNorm(), 1e-2);
}

TEST(AdamTest, WeightDecayShrinksUnusedParams) {
  // A parameter receiving (zero-accumulated) gradients decays toward 0 when
  // weight_decay > 0.
  Tensor w = Tensor::Leaf(Matrix(2, 2, 1.0f), true);
  Adam opt({w}, 0.05f, 0.9f, 0.999f, 1e-8f, /*weight_decay=*/0.1f);
  for (int i = 0; i < 200; ++i) {
    opt.ZeroGrad();
    // Touch the grad so Step() applies (gradient contribution is zero).
    Scale(SumAll(w), 0.0f).Backward();
    opt.Step();
  }
  EXPECT_LT(w.value().AbsMax(), 0.2f);
}

TEST(AdamTest, SkipsParamsWithoutGrad) {
  Tensor used = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor unused = Tensor::Leaf(Matrix({{7.0}}), true);
  Adam opt({used, unused}, 0.1f);
  opt.ZeroGrad();
  SumAll(Mul(used, used)).Backward();
  opt.Step();
  EXPECT_FLOAT_EQ(unused.value().at(0, 0), 7.0f);
  EXPECT_NE(used.value().at(0, 0), 1.0f);
}

TEST(AdamTest, ZeroGradClearsAccumulation) {
  Tensor w = Tensor::Leaf(Matrix({{1.0}}), true);
  Adam opt({w}, 0.1f);
  SumAll(w).Backward();
  EXPECT_FLOAT_EQ(w.grad().at(0, 0), 1.0f);
  opt.ZeroGrad();
  EXPECT_FLOAT_EQ(w.grad().at(0, 0), 0.0f);
}

TEST(AdamTest, Avx2UpdateMatchesScalarBitForBit) {
  if (!core::kernels::internal::HasAvx2()) GTEST_SKIP() << "no AVX2";
  // Every vector body length with every tail (0-17), a long run (1003),
  // with and without weight decay, over gradients that are subnormal, +-0
  // (v stays exactly 0), or large enough that g * g overflows v to Inf.
  const float specials[] = {1e-40f, 0.0f, -0.0f, 1e30f, -1e30f};
  for (size_t n : {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16,
                   17, 1003}) {
    for (float decay : {0.0f, 0.01f}) {
      Rng rng(n + 1);
      std::vector<float> w(n), g(n);
      for (size_t i = 0; i < n; ++i) w[i] = static_cast<float>(rng.Normal());
      std::vector<float> w_avx = w, m_avx(n, 0.0f), v_avx(n, 0.0f);
      std::vector<float> w_ref = w, m_ref(n, 0.0f), v_ref(n, 0.0f);
      for (int t = 1; t <= 3; ++t) {
        for (size_t i = 0; i < n; ++i) {
          g[i] = i % 8 < 5 ? specials[(i + t) % 5]
                           : static_cast<float>(rng.Normal());
        }
        const internal::AdamCoefficients k = {
            0.9f, 0.999f, 1e-8f, decay,
            static_cast<float>(0.01 * std::sqrt(1.0 - std::pow(0.999, t)) /
                               (1.0 - std::pow(0.9, t)))};
        internal::AdamUpdateAvx2(k, g.data(), w_avx.data(), m_avx.data(),
                                 v_avx.data(), n);
        internal::AdamUpdateScalar(k, g.data(), w_ref.data(), m_ref.data(),
                                   v_ref.data(), n);
      }
      SCOPED_TRACE(::testing::Message() << "n=" << n << " decay=" << decay);
      const size_t bytes = n * sizeof(float);
      EXPECT_EQ(std::memcmp(w_avx.data(), w_ref.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(m_avx.data(), m_ref.data(), bytes), 0);
      EXPECT_EQ(std::memcmp(v_avx.data(), v_ref.data(), bytes), 0);
    }
  }
}

TEST(ClipGradNormTest, RescalesLargeGradients) {
  Tensor w = Tensor::Leaf(Matrix({{3.0, 4.0}}), true);
  SumAll(Mul(w, Tensor::Constant(Matrix({{3.0, 4.0}})))).Backward();
  // grad = (3, 4), norm 5.
  const double norm = ClipGradNorm({w}, 1.0);
  EXPECT_NEAR(norm, 5.0, 1e-5);
  EXPECT_NEAR(w.grad().at(0, 0), 0.6, 1e-5);
  EXPECT_NEAR(w.grad().at(0, 1), 0.8, 1e-5);
}

TEST(ClipGradNormTest, LeavesSmallGradientsAlone) {
  Tensor w = Tensor::Leaf(Matrix({{1.0}}), true);
  SumAll(Scale(w, 0.1f)).Backward();
  ClipGradNorm({w}, 10.0);
  EXPECT_NEAR(w.grad().at(0, 0), 0.1, 1e-6);
}

TEST(OptimizerIntegrationTest, LogisticRegressionLearns) {
  // Linearly separable data; Adam + BCE drives the training loss near 0.
  Rng rng(3);
  const size_t n = 200, d = 5;
  Matrix x = Matrix::Randn(n, d, &rng);
  Matrix true_w = Matrix::Randn(d, 1, &rng);
  Matrix y(n, 1);
  for (size_t i = 0; i < n; ++i) {
    double s = 0.0;
    for (size_t j = 0; j < d; ++j) s += x.at(i, j) * true_w.at(j, 0);
    y.at(i, 0) = s > 0 ? 1.0f : 0.0f;
  }
  Linear model(d, 1, &rng);
  Adam opt(model.Parameters(), 0.05f);
  Tensor xt = Tensor::Constant(x);
  float first = 0.0f, last = 0.0f;
  for (int step = 0; step < 300; ++step) {
    opt.ZeroGrad();
    Tensor loss = BceWithLogits(model.Forward(xt), y);
    if (step == 0) first = loss.scalar();
    last = loss.scalar();
    loss.Backward();
    opt.Step();
  }
  EXPECT_LT(last, first * 0.2f);
  EXPECT_LT(last, 0.2f);
}

}  // namespace
}  // namespace garcia::nn
