#include "nn/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/rng.h"
#include "nn/gradcheck.h"
#include "nn/loss.h"

namespace garcia::nn {
namespace {

using core::Matrix;
using core::Rng;

constexpr double kTol = 2e-2;  // float forward + fd with eps=1e-3

Tensor RandLeaf(size_t r, size_t c, Rng* rng, bool grad = true) {
  return Tensor::Leaf(Matrix::Randn(r, c, rng, 0.0f, 1.0f), grad);
}

// ----- forward-value tests -----

TEST(OpsForwardTest, MatMul) {
  Tensor a = Tensor::Constant(Matrix({{1, 2}, {3, 4}}));
  Tensor b = Tensor::Constant(Matrix({{5, 6}, {7, 8}}));
  EXPECT_TRUE(MatMul(a, b).value().AllClose(Matrix({{19, 22}, {43, 50}})));
}

TEST(OpsForwardTest, MatMulNT) {
  Tensor a = Tensor::Constant(Matrix({{1, 0}, {0, 1}, {1, 1}}));
  Tensor b = Tensor::Constant(Matrix({{2, 3}, {4, 5}}));
  // A @ B^T: 3x2
  EXPECT_TRUE(
      MatMulNT(a, b).value().AllClose(Matrix({{2, 4}, {3, 5}, {5, 9}})));
}

TEST(OpsForwardTest, Transpose) {
  Tensor a = Tensor::Constant(Matrix({{1, 2, 3}, {4, 5, 6}}));
  EXPECT_TRUE(
      Transpose(a).value().AllClose(Matrix({{1, 4}, {2, 5}, {3, 6}})));
}

TEST(OpsForwardTest, AddSubMulScale) {
  Tensor a = Tensor::Constant(Matrix({{1, 2}}));
  Tensor b = Tensor::Constant(Matrix({{3, 5}}));
  EXPECT_TRUE(Add(a, b).value().AllClose(Matrix({{4, 7}})));
  EXPECT_TRUE(Sub(a, b).value().AllClose(Matrix({{-2, -3}})));
  EXPECT_TRUE(Mul(a, b).value().AllClose(Matrix({{3, 10}})));
  EXPECT_TRUE(Scale(a, -2.0f).value().AllClose(Matrix({{-2, -4}})));
  EXPECT_TRUE(AddScalar(a, 1.5f).value().AllClose(Matrix({{2.5, 3.5}})));
}

TEST(OpsForwardTest, AddRowBroadcast) {
  Tensor x = Tensor::Constant(Matrix({{1, 2}, {3, 4}}));
  Tensor b = Tensor::Constant(Matrix({{10, 20}}));
  EXPECT_TRUE(
      AddRowBroadcast(x, b).value().AllClose(Matrix({{11, 22}, {13, 24}})));
}

TEST(OpsForwardTest, MulColBroadcast) {
  Tensor x = Tensor::Constant(Matrix({{1, 2}, {3, 4}}));
  Tensor w = Tensor::Constant(Matrix({{2}, {-1}}));
  EXPECT_TRUE(
      MulColBroadcast(x, w).value().AllClose(Matrix({{2, 4}, {-3, -4}})));
}

TEST(OpsForwardTest, Average) {
  Tensor a = Tensor::Constant(Matrix({{2, 4}}));
  Tensor b = Tensor::Constant(Matrix({{4, 8}}));
  EXPECT_TRUE(Average({a, b}).value().AllClose(Matrix({{3, 6}})));
  EXPECT_TRUE(Average({a}).value().AllClose(Matrix({{2, 4}})));
}

TEST(OpsForwardTest, Concat) {
  Tensor a = Tensor::Constant(Matrix({{1, 2}, {3, 4}}));
  Tensor b = Tensor::Constant(Matrix({{5}, {6}}));
  EXPECT_TRUE(
      ConcatCols(a, b).value().AllClose(Matrix({{1, 2, 5}, {3, 4, 6}})));
  Tensor c = Tensor::Constant(Matrix({{7, 8}}));
  EXPECT_TRUE(ConcatRows(a, c).value().AllClose(
      Matrix({{1, 2}, {3, 4}, {7, 8}})));
}

TEST(OpsForwardTest, GatherRows) {
  Tensor t = Tensor::Constant(Matrix({{1, 1}, {2, 2}, {3, 3}}));
  Tensor g = GatherRows(t, {2, 0, 2});
  EXPECT_TRUE(g.value().AllClose(Matrix({{3, 3}, {1, 1}, {3, 3}})));
}

TEST(OpsForwardTest, Activations) {
  Tensor x = Tensor::Constant(Matrix({{-1, 0, 2}}));
  EXPECT_TRUE(Relu(x).value().AllClose(Matrix({{0, 0, 2}})));
  EXPECT_NEAR(Tanh(x).value().at(0, 2), std::tanh(2.0f), 1e-6);
  EXPECT_NEAR(Sigmoid(x).value().at(0, 0), 1.0 / (1.0 + std::exp(1.0)), 1e-6);
  EXPECT_TRUE(
      LeakyRelu(x, 0.1f).value().AllClose(Matrix({{-0.1, 0, 2}})));
}

TEST(OpsForwardTest, L2NormalizeRows) {
  Tensor x = Tensor::Constant(Matrix({{3, 4}, {0, 0}}));
  Tensor y = L2NormalizeRows(x);
  EXPECT_NEAR(y.value().at(0, 0), 0.6f, 1e-6);
  EXPECT_NEAR(y.value().at(0, 1), 0.8f, 1e-6);
  EXPECT_FLOAT_EQ(y.value().at(1, 0), 0.0f);  // zero row passes through
}

TEST(OpsForwardTest, SoftmaxRows) {
  Tensor x = Tensor::Constant(Matrix({{0, 0}, {1000, 1000}}));
  Tensor y = SoftmaxRows(x);
  EXPECT_NEAR(y.value().at(0, 0), 0.5f, 1e-6);
  EXPECT_NEAR(y.value().at(1, 1), 0.5f, 1e-6);  // stable at large logits
}

TEST(OpsForwardTest, Reductions) {
  Tensor x = Tensor::Constant(Matrix({{1, 2}, {3, 4}}));
  EXPECT_FLOAT_EQ(SumAll(x).scalar(), 10.0f);
  EXPECT_FLOAT_EQ(MeanAll(x).scalar(), 2.5f);
  Tensor a = Tensor::Constant(Matrix({{1, 2}, {3, 4}}));
  Tensor b = Tensor::Constant(Matrix({{5, 6}, {7, 8}}));
  Tensor d = RowDot(a, b);
  EXPECT_FLOAT_EQ(d.value().at(0, 0), 17.0f);
  EXPECT_FLOAT_EQ(d.value().at(1, 0), 53.0f);
}

TEST(OpsForwardTest, SegmentSum) {
  Tensor x = Tensor::Constant(Matrix({{1, 1}, {2, 2}, {3, 3}, {4, 4}}));
  Tensor s = SegmentSum(x, {0, 1, 0, 2}, 4);
  EXPECT_TRUE(s.value().AllClose(
      Matrix({{4, 4}, {2, 2}, {4, 4}, {0, 0}})));  // segment 3 empty
}

TEST(OpsForwardTest, SegmentSoftmaxSumsToOnePerSegment) {
  Rng rng(3);
  const size_t edges = 40, segs = 7;
  std::vector<uint32_t> seg(edges);
  for (auto& s : seg) s = static_cast<uint32_t>(rng.UniformInt(uint64_t{segs}));
  Tensor scores = RandLeaf(edges, 1, &rng, false);
  Tensor a = SegmentSoftmax(scores, seg, segs);
  std::vector<double> sums(segs, 0.0);
  for (size_t e = 0; e < edges; ++e) {
    EXPECT_GT(a.value().at(e, 0), 0.0f);
    sums[seg[e]] += a.value().at(e, 0);
  }
  for (size_t s = 0; s < segs; ++s) {
    if (sums[s] > 0.0) EXPECT_NEAR(sums[s], 1.0, 1e-5);
  }
}

TEST(OpsForwardTest, SegmentSoftmaxSingletonIsOne) {
  Tensor scores = Tensor::Constant(Matrix({{42.0}}));
  Tensor a = SegmentSoftmax(scores, {0}, 1);
  EXPECT_NEAR(a.value().at(0, 0), 1.0f, 1e-6);
}

TEST(OpsForwardTest, DropoutZeroPIsIdentity) {
  Rng rng(5);
  Tensor x = Tensor::Constant(Matrix({{1, 2, 3}}));
  EXPECT_TRUE(Dropout(x, 0.0f, &rng).value().AllClose(x.value()));
}

TEST(OpsForwardTest, DropoutPreservesExpectation) {
  Rng rng(7);
  Tensor x = Tensor::Constant(Matrix(1, 20000, 1.0f));
  Tensor y = Dropout(x, 0.3f, &rng);
  EXPECT_NEAR(y.value().Sum() / 20000.0, 1.0, 0.03);
}

// ----- gradient checks -----

class OpGradTest : public ::testing::Test {
 protected:
  Rng rng_{12345};

  void ExpectGradOk(const std::function<Tensor()>& loss,
                    const std::vector<Tensor>& params) {
    auto res = CheckGradients(loss, params, 1e-2f);
    EXPECT_LT(res.max_rel_error, kTol)
        << "abs=" << res.max_abs_error << " over " << res.checked_entries;
  }
};

TEST_F(OpGradTest, MatMul) {
  Tensor a = RandLeaf(3, 4, &rng_);
  Tensor b = RandLeaf(4, 2, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(MatMul(a, b))); }, {a, b});
}

TEST_F(OpGradTest, MatMulNT) {
  Tensor a = RandLeaf(3, 4, &rng_);
  Tensor b = RandLeaf(5, 4, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(MatMulNT(a, b))); }, {a, b});
}

TEST_F(OpGradTest, Transpose) {
  Tensor a = RandLeaf(3, 2, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(Transpose(a))); }, {a});
}

TEST_F(OpGradTest, AddSubMul) {
  Tensor a = RandLeaf(2, 3, &rng_);
  Tensor b = RandLeaf(2, 3, &rng_);
  ExpectGradOk([&] { return SumAll(Mul(Add(a, b), Sub(a, b))); }, {a, b});
}

TEST_F(OpGradTest, ScaleAddScalar) {
  Tensor a = RandLeaf(2, 2, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(AddScalar(Scale(a, 1.7f), 0.3f))); },
               {a});
}

TEST_F(OpGradTest, AddRowBroadcast) {
  Tensor x = RandLeaf(4, 3, &rng_);
  Tensor b = RandLeaf(1, 3, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(AddRowBroadcast(x, b))); }, {x, b});
}

TEST_F(OpGradTest, MulColBroadcast) {
  Tensor x = RandLeaf(4, 3, &rng_);
  Tensor w = RandLeaf(4, 1, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(MulColBroadcast(x, w))); }, {x, w});
}

TEST_F(OpGradTest, Average) {
  Tensor a = RandLeaf(2, 3, &rng_);
  Tensor b = RandLeaf(2, 3, &rng_);
  Tensor c = RandLeaf(2, 3, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(Average({a, b, c}))); }, {a, b, c});
}

TEST_F(OpGradTest, Concat) {
  Tensor a = RandLeaf(3, 2, &rng_);
  Tensor b = RandLeaf(3, 4, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(ConcatCols(a, b))); }, {a, b});
  Tensor c = RandLeaf(2, 2, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(ConcatRows(a, c))); }, {a, c});
}

TEST_F(OpGradTest, GatherRowsWithRepeats) {
  Tensor t = RandLeaf(5, 3, &rng_);
  std::vector<uint32_t> idx = {0, 2, 2, 4, 0};
  ExpectGradOk([&] { return SumAll(Tanh(GatherRows(t, idx))); }, {t});
}

TEST_F(OpGradTest, ActivationChain) {
  Tensor x = RandLeaf(3, 3, &rng_);
  ExpectGradOk([&] { return SumAll(Sigmoid(Tanh(LeakyRelu(x, 0.2f)))); },
               {x});
}

TEST_F(OpGradTest, Relu) {
  // Shift away from 0 so finite differences do not straddle the kink.
  Tensor x = Tensor::Leaf(Matrix({{-1.0, 0.5, 2.0, -0.3}}), true);
  ExpectGradOk([&] { return SumAll(Relu(x)); }, {x});
}

TEST_F(OpGradTest, L2NormalizeRows) {
  Tensor x = RandLeaf(4, 5, &rng_);
  ExpectGradOk([&] { return SumAll(Tanh(L2NormalizeRows(x))); }, {x});
}

TEST_F(OpGradTest, SoftmaxRows) {
  Tensor x = RandLeaf(3, 6, &rng_);
  Tensor w = Tensor::Constant(Matrix::Randn(3, 6, &rng_));
  ExpectGradOk([&] { return SumAll(Mul(SoftmaxRows(x), w)); }, {x});
}

TEST_F(OpGradTest, MeanAllRowDot) {
  Tensor a = RandLeaf(4, 3, &rng_);
  Tensor b = RandLeaf(4, 3, &rng_);
  ExpectGradOk([&] { return MeanAll(Tanh(RowDot(a, b))); }, {a, b});
}

TEST_F(OpGradTest, SegmentSum) {
  Tensor x = RandLeaf(6, 3, &rng_);
  std::vector<uint32_t> seg = {0, 1, 0, 2, 1, 0};
  ExpectGradOk([&] { return SumAll(Tanh(SegmentSum(x, seg, 3))); }, {x});
}

TEST_F(OpGradTest, SegmentSoftmax) {
  Tensor s = RandLeaf(7, 1, &rng_);
  std::vector<uint32_t> seg = {0, 0, 1, 1, 1, 2, 0};
  Tensor w = Tensor::Constant(Matrix::Randn(7, 1, &rng_));
  ExpectGradOk([&] { return SumAll(Mul(SegmentSoftmax(s, seg, 3), w)); },
               {s});
}

TEST_F(OpGradTest, GnnLayerComposite) {
  // The exact composition used by the GARCIA encoder: gather neighbors,
  // concat edge features, attention via segment softmax, segment-sum,
  // linear + tanh update.
  const size_t nodes = 5, edges = 8, d = 4, de = 2;
  Tensor emb = RandLeaf(nodes, d, &rng_);
  Tensor w_att = RandLeaf(2 * d + de, 1, &rng_);
  Tensor w_agg = RandLeaf(d + de, d, &rng_);
  std::vector<uint32_t> src = {0, 1, 2, 3, 4, 1, 2, 0};
  std::vector<uint32_t> dst = {1, 0, 1, 2, 3, 4, 4, 2};
  Tensor efeat = Tensor::Constant(Matrix::Randn(edges, de, &rng_));
  auto loss = [&] {
    Tensor zsrc = GatherRows(emb, src);
    Tensor zdst = GatherRows(emb, dst);
    Tensor att_in = ConcatCols(ConcatCols(zdst, zsrc), efeat);
    Tensor alpha = SegmentSoftmax(LeakyRelu(MatMul(att_in, w_att)), dst, nodes);
    Tensor msg_in = ConcatCols(zsrc, efeat);
    Tensor weighted = MulColBroadcast(msg_in, alpha);
    Tensor agg = SegmentSum(weighted, dst, nodes);
    Tensor m = Tanh(MatMul(agg, w_agg));
    return SumAll(Tanh(m));
  };
  ExpectGradOk(loss, {emb, w_att, w_agg});
}

}  // namespace
}  // namespace garcia::nn
