#include "nn/tensor.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>

#include "nn/ops.h"

namespace garcia::nn {
namespace {

using core::Matrix;

TEST(TensorTest, UndefinedByDefault) {
  Tensor t;
  EXPECT_FALSE(t.defined());
}

TEST(TensorTest, LeafHoldsValue) {
  Tensor t = Tensor::Leaf(Matrix({{1, 2}, {3, 4}}), true);
  EXPECT_TRUE(t.defined());
  EXPECT_TRUE(t.requires_grad());
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_FLOAT_EQ(t.value().at(1, 0), 3.0f);
  EXPECT_FALSE(t.has_grad());
}

TEST(TensorTest, ConstantNeverRequiresGrad) {
  Tensor c = Tensor::Constant(Matrix(2, 2, 1.0f));
  EXPECT_FALSE(c.requires_grad());
}

TEST(TensorTest, ScalarAccessor) {
  Tensor t = Tensor::Leaf(Matrix({{2.5}}), false);
  EXPECT_FLOAT_EQ(t.scalar(), 2.5f);
}

TEST(TensorTest, SimpleBackward) {
  // loss = sum(2 * x), dloss/dx = 2.
  Tensor x = Tensor::Leaf(Matrix({{1, 2}, {3, 4}}), true);
  Tensor loss = SumAll(Scale(x, 2.0f));
  loss.Backward();
  ASSERT_TRUE(x.has_grad());
  EXPECT_TRUE(x.grad().AllClose(Matrix(2, 2, 2.0f)));
}

TEST(TensorTest, DiamondGraphAccumulates) {
  // y = x + x: dy/dx = 2 through two paths.
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor loss = SumAll(Add(x, x));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 2.0f);
}

TEST(TensorTest, DeepDiamond) {
  // z = (x+x) + (x+x): dz/dx = 4.
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor a = Add(x, x);
  Tensor b = Add(x, x);
  Tensor loss = SumAll(Add(a, b));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 4.0f);
}

TEST(TensorTest, SharedSubexpressionVisitedOnce) {
  // u = 3x; loss = sum(u + u). If u's backward ran twice the grad would be
  // wrong; correct is 6.
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor u = Scale(x, 3.0f);
  Tensor loss = SumAll(Add(u, u));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 6.0f);
}

TEST(TensorTest, NoGradThroughConstants) {
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor c = Tensor::Constant(Matrix({{5.0}}));
  Tensor loss = SumAll(Mul(x, c));
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 5.0f);
  EXPECT_FALSE(c.has_grad());
}

TEST(TensorTest, BackwardTwiceAccumulates) {
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor loss = SumAll(Scale(x, 2.0f));
  loss.Backward();
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 4.0f);
  x.ZeroGrad();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 0.0f);
}

TEST(TensorTest, FreshTapePerStep) {
  Tensor w = Tensor::Leaf(Matrix({{1.0}}), true);
  for (int step = 0; step < 3; ++step) {
    w.ZeroGrad();
    Tensor loss = SumAll(Mul(w, w));  // d/dw w^2 = 2w
    loss.Backward();
    const float expected = 2.0f * w.value().at(0, 0);
    EXPECT_FLOAT_EQ(w.grad().at(0, 0), expected);
    w.mutable_value().at(0, 0) -= 0.1f * w.grad().at(0, 0);
  }
  EXPECT_LT(w.value().at(0, 0), 1.0f);  // descending toward 0
}

TEST(TensorTest, LongChainBackward) {
  // Deep chain exercises the iterative (non-recursive) topo sort.
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor h = x;
  const int depth = 2000;
  for (int i = 0; i < depth; ++i) h = Scale(h, 1.0f);
  Tensor loss = SumAll(h);
  loss.Backward();
  EXPECT_FLOAT_EQ(x.grad().at(0, 0), 1.0f);
}

TEST(TensorTest, IdStableAcrossCopies) {
  Tensor a = Tensor::Leaf(Matrix({{1.0}}), true);
  Tensor b = a;
  EXPECT_EQ(a.id(), b.id());
}

// ---- NoGradScope ----

bool SameBytes(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(NoGradScopeTest, OpNodeHoldsOnlyItsValue) {
  Tensor x = Tensor::Leaf(Matrix({{1, -2}, {3, 4}}), true);
  Tensor c = Tensor::Constant(Matrix({{0.5, 2}, {-1, 3}}));
  Tensor taped = Relu(Mul(x, c));
  NoGradScope no_grad;
  Tensor y = Relu(Mul(x, c));
  EXPECT_FALSE(y.requires_grad());
  EXPECT_TRUE(y.node()->parents.empty());
  EXPECT_FALSE(y.node()->backward_fn);
  EXPECT_TRUE(SameBytes(y.value(), taped.value()));
  // Leaves are unaffected.
  EXPECT_TRUE(Tensor::Leaf(Matrix(1, 1), true).requires_grad());
}

TEST(NoGradScopeTest, IntermediateFreesWhenItsHandleDrops) {
  Tensor x = Tensor::Leaf(Matrix({{1, 2}}), true);
  std::weak_ptr<internal::TensorNode> taped_mid, free_mid;
  Tensor taped_out, free_out;
  {
    Tensor mid = Scale(x, 2.0f);
    taped_mid = mid.shared_node();
    taped_out = Add(mid, x);
  }
  {
    NoGradScope no_grad;
    Tensor mid = Scale(x, 2.0f);
    free_mid = mid.shared_node();
    free_out = Add(mid, x);
  }
  // The tape keeps the intermediate alive; without it only the output lives.
  EXPECT_FALSE(taped_mid.expired());
  EXPECT_TRUE(free_mid.expired());
  EXPECT_TRUE(SameBytes(free_out.value(), taped_out.value()));
}

TEST(NoGradScopeTest, NestedScopesRestoreOuterState) {
  EXPECT_FALSE(NoGradScope::Active());
  {
    NoGradScope outer;
    EXPECT_TRUE(NoGradScope::Active());
    {
      NoGradScope inner;
      EXPECT_TRUE(NoGradScope::Active());
    }
    EXPECT_TRUE(NoGradScope::Active());
    Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
    EXPECT_FALSE(Scale(x, 2.0f).requires_grad());
  }
  EXPECT_FALSE(NoGradScope::Active());
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  EXPECT_TRUE(Scale(x, 2.0f).requires_grad());
}

TEST(NoGradScopeTest, ScopeIsPerThread) {
  Tensor x = Tensor::Leaf(Matrix({{1, 2}}), true);
  NoGradScope no_grad;
  bool other_active = true;
  bool other_taped = false;
  float other_grad = 0.0f;
  std::thread other([&] {
    other_active = NoGradScope::Active();
    Tensor w = Tensor::Leaf(Matrix({{3.0}}), true);
    Tensor loss = SumAll(Scale(w, 2.0f));
    other_taped = loss.requires_grad() && !loss.node()->parents.empty();
    loss.Backward();
    other_grad = w.grad().at(0, 0);
  });
  other.join();
  EXPECT_FALSE(other_active);
  EXPECT_TRUE(other_taped);
  EXPECT_FLOAT_EQ(other_grad, 2.0f);
  EXPECT_TRUE(NoGradScope::Active());
  EXPECT_FALSE(Scale(x, 2.0f).requires_grad());
}

TEST(NoGradScopeTest, BackwardAfterScopeMatchesNeverScoped) {
  auto grads = [](bool visit_scope) {
    Tensor w = Tensor::Leaf(Matrix({{0.5, -1.5}, {2, 0.25}}), true);
    Tensor x = Tensor::Constant(Matrix({{1, 2}, {-3, 4}}));
    if (visit_scope) {
      NoGradScope no_grad;
      Tensor unused = SumAll(Tanh(MatMul(x, w)));
    }
    Tensor loss = SumAll(Tanh(MatMul(x, w)));
    loss.Backward();
    return w.grad();
  };
  EXPECT_TRUE(SameBytes(grads(true), grads(false)));
}

TEST(NoGradScopeDeathTest, BackwardNamesTheActiveScope) {
  Tensor x = Tensor::Leaf(Matrix({{1.0}}), true);
  NoGradScope no_grad;
  Tensor loss = SumAll(Scale(x, 2.0f));
  EXPECT_DEATH(loss.Backward(), "a NoGradScope is active");
}

}  // namespace
}  // namespace garcia::nn
