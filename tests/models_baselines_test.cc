#include <gtest/gtest.h>

#include "models/registry.h"

namespace garcia::models {
namespace {

data::ScenarioConfig TinyDataConfig() {
  data::ScenarioConfig cfg;
  cfg.num_queries = 150;
  cfg.num_services = 60;
  cfg.num_intentions = 30;
  cfg.num_trees = 4;
  cfg.num_impressions = 6000;
  cfg.head_fraction = 0.06;
  return cfg;
}

const data::Scenario& Tiny() {
  static const data::Scenario* s =
      new data::Scenario(data::GenerateScenario(TinyDataConfig()));
  return *s;
}

TrainConfig FastTrainConfig() {
  TrainConfig cfg;
  cfg.embedding_dim = 16;
  cfg.pretrain_epochs = 1;
  cfg.finetune_epochs = 3;
  cfg.max_batches_per_epoch = 6;
  cfg.batch_size = 512;
  cfg.cl_batch_size = 96;
  return cfg;
}

TEST(RegistryTest, SixModelsInPaperOrder) {
  ASSERT_EQ(AllModelNames().size(), 6u);
  EXPECT_EQ(AllModelNames().front(), "Wide&Deep");
  EXPECT_EQ(AllModelNames().back(), "GARCIA");
  EXPECT_EQ(BaselineModelNames().size(), 5u);
}

TEST(RegistryTest, CreatesEveryModel) {
  for (const auto& name : AllModelNames()) {
    auto model = CreateModel(name, FastTrainConfig());
    ASSERT_NE(model, nullptr);
    EXPECT_EQ(model->name(), name);
  }
}

class BaselineFitTest : public ::testing::TestWithParam<std::string> {};

TEST_P(BaselineFitTest, FitsAndBeatsRandom) {
  auto model = CreateModel(GetParam(), FastTrainConfig());
  model->Fit(Tiny());
  auto scores = model->Predict(Tiny(), Tiny().test);
  ASSERT_EQ(scores.size(), Tiny().test.size());
  for (float p : scores) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  auto m = EvaluateModel(model.get(), Tiny(), Tiny().test);
  EXPECT_GT(m.overall.auc, 0.55) << GetParam() << " failed to learn";
}

TEST_P(BaselineFitTest, DeterministicGivenSeed) {
  auto a = CreateModel(GetParam(), FastTrainConfig());
  auto b = CreateModel(GetParam(), FastTrainConfig());
  a->Fit(Tiny());
  b->Fit(Tiny());
  auto sa = a->Predict(Tiny(), Tiny().validation);
  auto sb = b->Predict(Tiny(), Tiny().validation);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_FLOAT_EQ(sa[i], sb[i]);
}

INSTANTIATE_TEST_SUITE_P(AllBaselines, BaselineFitTest,
                         ::testing::Values("Wide&Deep", "LightGCN", "KGAT",
                                           "SGL", "SimSGL"),
                         [](const auto& info) {
                           std::string n = info.param;
                           for (char& c : n) {
                             if (!std::isalnum(static_cast<unsigned char>(c)))
                               c = '_';
                           }
                           return n;
                         });

TEST(BaselineEmbeddingsTest, GnnBaselinesExportEmbeddings) {
  for (const std::string name : {"LightGCN", "KGAT"}) {
    auto model = CreateModel(name, FastTrainConfig());
    model->Fit(Tiny());
    core::Matrix q = model->ExportQueryEmbeddings(Tiny());
    core::Matrix s = model->ExportServiceEmbeddings(Tiny());
    EXPECT_EQ(q.rows(), Tiny().num_queries());
    EXPECT_EQ(s.rows(), Tiny().num_services());
    EXPECT_GT(q.FrobeniusNorm(), 0.0);
  }
}

TEST(BaselineEmbeddingsTest, WideDeepHasNoEmbeddingSpace) {
  auto model = CreateModel("Wide&Deep", FastTrainConfig());
  model->Fit(Tiny());
  EXPECT_TRUE(model->ExportQueryEmbeddings(Tiny()).empty());
}

TEST(BaselineSamplingTest, GnnBaselinesTrainOnSampledBlocks) {
  // Each GNN baseline's shared propagate path must also run over sampled
  // blocks (DESIGN.md §5e) and keep producing valid probabilities.
  TrainConfig cfg = FastTrainConfig();
  cfg.sample_fanout = 3;
  for (const std::string& name : {"LightGCN", "SGL", "SimSGL", "KGAT"}) {
    auto model = CreateModel(name, cfg);
    model->Fit(Tiny());
    auto scores = model->Predict(Tiny(), Tiny().test);
    ASSERT_EQ(scores.size(), Tiny().test.size()) << name;
    for (float p : scores) {
      ASSERT_GE(p, 0.0f) << name;
      ASSERT_LE(p, 1.0f) << name;
    }
  }
}

}  // namespace
}  // namespace garcia::models
