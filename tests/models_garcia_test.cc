#include "models/garcia_model.h"

#include <gtest/gtest.h>

#include <cmath>

#include "models/common.h"

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
  cfg.pretrain_epochs = 3;
  cfg.finetune_epochs = 6;
  cfg.max_batches_per_epoch = 10;
  cfg.batch_size = 512;
  cfg.cl_batch_size = 96;
  return cfg;
}

TEST(GarciaModelTest, FitPredictEndToEnd) {
  GarciaModel model(FastTrainConfig());
  model.Fit(Tiny());
  auto scores = model.Predict(Tiny(), Tiny().test);
  ASSERT_EQ(scores.size(), Tiny().test.size());
  for (float p : scores) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
  EXPECT_GT(model.num_anchor_pairs(), 0u);
  EXPECT_TRUE(std::isfinite(model.last_pretrain_loss()));
  EXPECT_TRUE(std::isfinite(model.last_finetune_loss()));
}

TEST(GarciaModelTest, LearnsBetterThanRandom) {
  GarciaModel model(FastTrainConfig());
  model.Fit(Tiny());
  auto m = EvaluateModel(&model, Tiny(), Tiny().test);
  EXPECT_GT(m.overall.auc, 0.6) << "GARCIA failed to beat random ranking";
  EXPECT_GT(m.tail.auc, 0.55);
}

TEST(GarciaModelTest, DeterministicGivenSeed) {
  GarciaModel a(FastTrainConfig());
  GarciaModel b(FastTrainConfig());
  a.Fit(Tiny());
  b.Fit(Tiny());
  auto sa = a.Predict(Tiny(), Tiny().test);
  auto sb = b.Predict(Tiny(), Tiny().test);
  ASSERT_EQ(sa.size(), sb.size());
  for (size_t i = 0; i < sa.size(); ++i) EXPECT_FLOAT_EQ(sa[i], sb[i]);
}

TEST(GarciaModelTest, SharedEncoderVariantRuns) {
  TrainConfig cfg = FastTrainConfig();
  cfg.share_encoders = true;  // GARCIA-Share (Fig. 3)
  GarciaModel model(cfg);
  model.Fit(Tiny());
  auto m = EvaluateModel(&model, Tiny(), Tiny().test);
  EXPECT_GT(m.overall.auc, 0.55);
}

TEST(GarciaModelTest, AblationTogglesRun) {
  for (int variant = 0; variant < 4; ++variant) {
    TrainConfig cfg = FastTrainConfig();
    cfg.pretrain_epochs = 1;
    cfg.finetune_epochs = 2;
    cfg.use_secl = (variant != 0 && variant != 2);
    cfg.use_igcl = (variant != 1 && variant != 2);
    cfg.use_ktcl = (variant != 3);
    GarciaModel model(cfg);
    model.Fit(Tiny());
    auto scores = model.Predict(Tiny(), Tiny().validation);
    EXPECT_EQ(scores.size(), Tiny().validation.size());
  }
}

TEST(GarciaModelTest, NoIntentionVariantRuns) {
  TrainConfig cfg = FastTrainConfig();
  cfg.use_intention = false;  // Fig. 7 reference baseline
  GarciaModel model(cfg);
  model.Fit(Tiny());
  EXPECT_GT(EvaluateModel(&model, Tiny(), Tiny().test).overall.auc, 0.5);
}

TEST(GarciaModelTest, TreeLevelSweepRuns) {
  for (size_t h : {1u, 3u, 5u}) {
    TrainConfig cfg = FastTrainConfig();
    cfg.pretrain_epochs = 1;
    cfg.finetune_epochs = 1;
    cfg.tree_levels = h;
    GarciaModel model(cfg);
    model.Fit(Tiny());
    EXPECT_EQ(model.Predict(Tiny(), Tiny().validation).size(),
              Tiny().validation.size());
  }
}

TEST(GarciaModelTest, InnerProductHeadRuns) {
  TrainConfig cfg = FastTrainConfig();
  cfg.inner_product_head = true;  // online serving variant (Fig. 9)
  GarciaModel model(cfg);
  model.Fit(Tiny());
  EXPECT_GT(EvaluateModel(&model, Tiny(), Tiny().test).overall.auc, 0.55);
}

TEST(GarciaModelTest, ExportedEmbeddingsShapes) {
  GarciaModel model(FastTrainConfig());
  model.Fit(Tiny());
  core::Matrix q = model.ExportQueryEmbeddings(Tiny());
  core::Matrix s = model.ExportServiceEmbeddings(Tiny());
  EXPECT_EQ(q.rows(), Tiny().num_queries());
  EXPECT_EQ(s.rows(), Tiny().num_services());
  EXPECT_EQ(q.cols(), FastTrainConfig().embedding_dim);
  EXPECT_GT(q.FrobeniusNorm(), 0.0);
  EXPECT_GT(s.FrobeniusNorm(), 0.0);
}

TEST(GarciaModelTest, PretrainingReducesContrastiveLoss) {
  // Mechanism check: the multi-granularity CL objective (Eq. 11) must be
  // optimizable — the last pre-training step's loss is well below the
  // first. (Whether pre-training helps tail AUC is a scale-dependent
  // question answered by bench/fig4_cl_ablation at benchmark scale; at this
  // miniature scale the anchor pool is too small for a stable comparison.)
  TrainConfig cfg = FastTrainConfig();
  cfg.pretrain_epochs = 4;
  cfg.finetune_epochs = 0;
  GarciaModel model(cfg);
  model.Fit(Tiny());
  EXPECT_GT(model.first_pretrain_loss(), 0.0f);
  EXPECT_LT(model.last_pretrain_loss(), model.first_pretrain_loss() * 0.8f);
}

TEST(GarciaModelTest, PredictionsStableAcrossRepeatedCalls) {
  // Predict/Export reuse one cached post-Fit encoding; repeated calls must
  // agree with each other and with the export hooks exactly.
  GarciaModel model(FastTrainConfig());
  model.Fit(Tiny());
  auto first = model.Predict(Tiny(), Tiny().test);
  auto second = model.Predict(Tiny(), Tiny().test);
  ASSERT_EQ(first.size(), second.size());
  for (size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], second[i]);

  core::Matrix q1 = model.ExportQueryEmbeddings(Tiny());
  core::Matrix q2 = model.ExportQueryEmbeddings(Tiny());
  EXPECT_TRUE(q1.AllClose(q2, 0.0f));
}

TEST(GarciaModelTest, RefitInvalidatesEncodedCache) {
  // A second Fit must not serve stale embeddings: its Predict has to see
  // the re-trained parameters (re-Fit advances the model's RNG stream, so
  // at least one score changes).
  GarciaModel model(FastTrainConfig());
  model.Fit(Tiny());
  auto before = model.Predict(Tiny(), Tiny().test);
  model.Fit(Tiny());
  auto after = model.Predict(Tiny(), Tiny().test);
  ASSERT_EQ(before.size(), after.size());
  bool any_changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    if (before[i] != after[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed);
}

TEST(GarciaModelTest, SampledTrainingIsAccurate) {
  // Minibatch sampled-subgraph training (DESIGN.md §5e) with a finite
  // fanout must still rank well above random.
  TrainConfig cfg = FastTrainConfig();
  cfg.sample_fanout = 4;
  GarciaModel model(cfg);
  model.Fit(Tiny());
  auto m = EvaluateModel(&model, Tiny(), Tiny().test);
  EXPECT_GT(m.overall.auc, 0.6) << "sampled training lost ranking quality";
}

TEST(GarciaModelTest, SampledSharedEncoderVariantRuns) {
  TrainConfig cfg = FastTrainConfig();
  cfg.sample_fanout = 3;
  cfg.share_encoders = true;
  GarciaModel model(cfg);
  model.Fit(Tiny());
  auto scores = model.Predict(Tiny(), Tiny().test);
  ASSERT_EQ(scores.size(), Tiny().test.size());
  for (float p : scores) {
    EXPECT_GE(p, 0.0f);
    EXPECT_LE(p, 1.0f);
  }
}

}  // namespace
}  // namespace garcia::models
