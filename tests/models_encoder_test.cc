#include "models/gnn_encoder.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "models/intention_encoder.h"
#include "nn/gradcheck.h"
#include "nn/loss.h"

namespace garcia::models {
namespace {

using core::Matrix;
using core::Rng;
using nn::Tensor;

graph::SearchGraph TinyGraph() {
  graph::SearchGraph g(3, 2, 4);
  Rng rng(1);
  g.attributes() = Matrix::Randn(5, 4, &rng);
  g.AddLink(0, 0, graph::EdgeKind::kInteraction, 0.5f, 0);
  g.AddLink(1, 0, graph::EdgeKind::kInteraction, 0.25f, graph::kCorrBrand);
  g.AddLink(2, 1, graph::EdgeKind::kCorrelation, 0.0f, graph::kCorrCity);
  g.Finalize();
  return g;
}

TEST(GarciaGnnEncoderTest, OutputShapes) {
  Rng rng(2);
  graph::SearchGraph g = TinyGraph();
  GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 8, 2, &rng);
  GnnOutput out = enc.Encode(g);
  ASSERT_EQ(out.layers.size(), 3u);  // z^0, z^1, z^2
  for (const Tensor& z : out.layers) {
    EXPECT_EQ(z.rows(), g.num_nodes());
    EXPECT_EQ(z.cols(), 8u);
  }
  EXPECT_EQ(out.readout.rows(), g.num_nodes());
}

TEST(GarciaGnnEncoderTest, ReadoutIsLayerMean) {
  Rng rng(3);
  graph::SearchGraph g = TinyGraph();
  GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 4, 1, &rng);
  GnnOutput out = enc.Encode(g);
  for (size_t i = 0; i < g.num_nodes(); ++i) {
    for (size_t k = 0; k < 4; ++k) {
      const float mean = 0.5f * (out.layers[0].value().at(i, k) +
                                 out.layers[1].value().at(i, k));
      EXPECT_NEAR(out.readout.value().at(i, k), mean, 1e-6);
    }
  }
}

TEST(GarciaGnnEncoderTest, IsolatedNodeStillEncodes) {
  // Query 2 links only to service 1; query indexes 0/1 share service 0.
  // A graph with an isolated node must not crash and must give finite
  // values.
  Rng rng(4);
  graph::SearchGraph g(2, 1, 3);
  g.AddLink(0, 0, graph::EdgeKind::kInteraction, 0.1f, 0);
  g.Finalize();  // query 1 isolated
  GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 4, 2, &rng);
  GnnOutput out = enc.Encode(g);
  for (size_t k = 0; k < 4; ++k) {
    EXPECT_TRUE(std::isfinite(out.readout.value().at(1, k)));
  }
}

TEST(GarciaGnnEncoderTest, EmptyGraphEncodes) {
  Rng rng(5);
  graph::SearchGraph g(2, 2, 3);
  g.Finalize();
  GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 4, 2, &rng);
  GnnOutput out = enc.Encode(g);
  EXPECT_EQ(out.readout.rows(), 4u);
}

TEST(GarciaGnnEncoderTest, GradientsFlowToAllParameters) {
  Rng rng(6);
  graph::SearchGraph g = TinyGraph();
  GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 4, 2, &rng);
  Tensor loss = nn::SumAll(nn::Tanh(enc.Encode(g).readout));
  loss.Backward();
  size_t with_grad = 0;
  for (const Tensor& p : enc.Parameters()) with_grad += p.has_grad();
  EXPECT_EQ(with_grad, enc.Parameters().size());
}

TEST(GarciaGnnEncoderTest, GradCheck) {
  Rng rng(7);
  graph::SearchGraph g = TinyGraph();
  GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 3, 1, &rng);
  auto res = nn::CheckGradients(
      [&] { return nn::MeanAll(nn::Tanh(enc.Encode(g).readout)); },
      enc.Parameters(), 1e-2f);
  EXPECT_LT(res.max_rel_error, 3e-2);
}

graph::SearchGraph RandomGraph() {
  graph::SearchGraph g(12, 6, 4);
  Rng rng(13);
  g.attributes() = Matrix::Randn(18, 4, &rng);
  const graph::EdgeKind kinds[] = {graph::EdgeKind::kInteraction,
                                   graph::EdgeKind::kCorrelation};
  for (uint32_t q = 0; q < 12; ++q) {
    for (uint32_t k = 0; k < 3; ++k) {
      g.AddLink(q, (q * 5 + k * 7) % 6, kinds[(q + k) % 2],
                0.1f * static_cast<float>(k + 1), graph::kCorrBrand);
    }
  }
  g.Finalize();
  return g;
}

bool SameBytes(const Tensor& a, const Tensor& b) {
  const Matrix& x = a.value();
  const Matrix& y = b.value();
  return x.rows() == y.rows() && x.cols() == y.cols() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

void ExpectSameOutput(const GnnOutput& taped, const GnnOutput& free) {
  ASSERT_EQ(taped.layers.size(), free.layers.size());
  for (size_t l = 0; l < taped.layers.size(); ++l) {
    EXPECT_TRUE(SameBytes(taped.layers[l], free.layers[l])) << "layer " << l;
    EXPECT_FALSE(free.layers[l].requires_grad());
  }
  EXPECT_TRUE(SameBytes(taped.readout, free.readout));
  EXPECT_TRUE(taped.readout.requires_grad());
  EXPECT_FALSE(free.readout.requires_grad());
  EXPECT_TRUE(free.readout.node()->parents.empty());
}

TEST(GarciaGnnEncoderTest, NoGradPassIsByteIdentical) {
  graph::SearchGraph g = RandomGraph();
  graph::NeighborSampler sampler(&g, 2, /*fanout=*/2);
  for (bool attention : {true, false}) {
    SCOPED_TRACE(attention ? "attention" : "uniform");
    Rng rng(14);
    GarciaGnnEncoder enc(g.num_nodes(), g.attr_dim(), 8, 2, &rng, attention);
    Rng block_rng(15);
    const graph::Block block = sampler.Sample({3, 0, 14, 9}, &block_rng);
    const GnnOutput taped_full = enc.Encode(g);
    const GnnOutput taped_block = enc.EncodeBlock(g, block);
    nn::NoGradScope no_grad;
    ExpectSameOutput(taped_full, enc.Encode(g));
    ExpectSameOutput(taped_block, enc.EncodeBlock(g, block));
  }
}

TEST(GcnPropagateTest, SymmetricNormalization) {
  // Two nodes, one undirected link (two directed edges); both degree 1, so
  // out[i] = z[other] exactly.
  Matrix z0({{1.0, 2.0}, {3.0, 4.0}});
  Tensor z = Tensor::Leaf(z0, true);
  std::vector<uint32_t> src = {0, 1};
  std::vector<uint32_t> dst = {1, 0};
  Tensor out = GcnPropagate(z, src, dst, 2);
  EXPECT_TRUE(out.value().AllClose(Matrix({{3.0, 4.0}, {1.0, 2.0}})));
}

TEST(GcnPropagateTest, DegreeNormalization) {
  // Node 2 connects to both 0 and 1 (star). deg(2)=2, deg(0)=deg(1)=1.
  // out[2] = z0/sqrt(2) + z1/sqrt(2); out[0] = z2/sqrt(2).
  Matrix z0({{1.0}, {3.0}, {5.0}});
  Tensor z = Tensor::Leaf(z0, true);
  std::vector<uint32_t> src = {0, 2, 1, 2};
  std::vector<uint32_t> dst = {2, 0, 2, 1};
  Tensor out = GcnPropagate(z, src, dst, 3);
  const float r2 = std::sqrt(2.0f);
  EXPECT_NEAR(out.value().at(2, 0), (1.0f + 3.0f) / r2, 1e-5);
  EXPECT_NEAR(out.value().at(0, 0), 5.0f / r2, 1e-5);
}

TEST(GcnPropagateTest, EdgeMaskDropsEdges) {
  Matrix z0({{1.0}, {3.0}});
  Tensor z = Tensor::Leaf(z0, true);
  std::vector<uint32_t> src = {0, 1};
  std::vector<uint32_t> dst = {1, 0};
  std::vector<uint8_t> keep = {0, 1};  // drop 0->1
  Tensor out = GcnPropagate(z, src, dst, 2, &keep);
  EXPECT_FLOAT_EQ(out.value().at(1, 0), 0.0f);
  EXPECT_GT(out.value().at(0, 0), 0.0f);
}

TEST(GcnPropagateTest, AllEdgesDropped) {
  Matrix z0({{1.0}, {3.0}});
  Tensor z = Tensor::Leaf(z0, true);
  std::vector<uint32_t> src = {0, 1};
  std::vector<uint32_t> dst = {1, 0};
  std::vector<uint8_t> keep = {0, 0};
  Tensor out = GcnPropagate(z, src, dst, 2, &keep);
  EXPECT_TRUE(out.value().AllClose(Matrix(2, 1)));
}

// ---- Intention encoder ----

intent::IntentionForest MakeForest() {
  intent::IntentionForest f;
  uint32_t r = f.AddRoot("root");
  uint32_t a = f.AddChild(r, "a");
  f.AddChild(r, "b");
  f.AddChild(a, "a1");
  f.AddChild(a, "a2");
  f.Finalize();
  return f;
}

TEST(IntentionEncoderTest, EncodeShape) {
  Rng rng(8);
  intent::IntentionForest f = MakeForest();
  IntentionEncoder enc(f, 6, 5, &rng);
  Tensor z = enc.Encode();
  EXPECT_EQ(z.rows(), f.size());
  EXPECT_EQ(z.cols(), 6u);
  EXPECT_EQ(enc.levels(), f.num_levels());  // clamped to 3
}

TEST(IntentionEncoderTest, ParentDependsOnChildren) {
  // Changing a leaf's embedding must change its ancestors' encodings
  // (bottom-up aggregation) but not unrelated leaves.
  Rng rng(9);
  intent::IntentionForest f = MakeForest();
  IntentionEncoder enc(f, 4, 5, &rng);
  Tensor before = enc.Encode();
  // Perturb leaf 3 ("a1") raw embedding.
  auto params = enc.Parameters();
  // params[0] is the embedding table (registered first).
  params[0].mutable_value().at(3, 0) += 1.0f;
  Tensor after = enc.Encode();
  // Ancestors of 3: node 1 ("a") and root 0 change.
  bool root_changed = false, a_changed = false, b_changed = false;
  for (size_t k = 0; k < 4; ++k) {
    root_changed |= std::fabs(after.value().at(0, k) -
                              before.value().at(0, k)) > 1e-7;
    a_changed |= std::fabs(after.value().at(1, k) -
                           before.value().at(1, k)) > 1e-7;
    b_changed |= std::fabs(after.value().at(2, k) -
                           before.value().at(2, k)) > 1e-7;
  }
  EXPECT_TRUE(root_changed);
  EXPECT_TRUE(a_changed);
  EXPECT_FALSE(b_changed);  // sibling subtree unaffected
}

TEST(IntentionEncoderTest, AttachRespectsLevelBudget) {
  Rng rng(10);
  intent::IntentionForest f = MakeForest();
  IntentionEncoder enc1(f, 4, 1, &rng);  // only roots
  EXPECT_EQ(enc1.Attach(3), 0u);         // a1 -> root
  EXPECT_EQ(enc1.Attach(0), 0u);
  IntentionEncoder enc2(f, 4, 2, &rng);  // roots + depth 1
  EXPECT_EQ(enc2.Attach(3), 1u);         // a1 -> a
  EXPECT_EQ(enc2.Attach(2), 2u);         // b stays
}

TEST(IntentionEncoderTest, PositiveChainTruncated) {
  Rng rng(11);
  intent::IntentionForest f = MakeForest();
  IntentionEncoder enc(f, 4, 2, &rng);
  auto chain = enc.PositiveChain(3);  // a1 attaches to a, chain = {a, root}
  EXPECT_EQ(chain, (std::vector<uint32_t>{1, 0}));
}

TEST(IntentionEncoderTest, GradCheck) {
  Rng rng(12);
  intent::IntentionForest forest = MakeForest();
  IntentionEncoder enc(forest, 3, 5, &rng);
  auto res = nn::CheckGradients(
      [&] { return nn::MeanAll(nn::Tanh(enc.Encode())); }, enc.Parameters(),
      1e-2f);
  EXPECT_LT(res.max_rel_error, 3e-2);
}

}  // namespace
}  // namespace garcia::models
