// Copyright (c) 2026 GARCIA reproduction authors.
// GARCIA (Sec. IV): adaptive head/tail GNN encoding over the service search
// graph, hierarchical intention encoding, multi-granularity contrastive
// pre-training (KTCL + SECL + IGCL, Eq. 11), and BCE fine-tuning of the
// MLP click head (Eq. 12-13).
//
// Training is block-based (DESIGN.md §5e): every step first PLANS — draws
// all batch/negative samples from the rng and maps the touched node rows
// through a graph::SeedSet — then ENCODES (the full graph when
// sample_fanout == 0, a NeighborSampler block seeded by the plan's rows
// otherwise), then EVALUATES the loss from the plan against the encoding.
// The plan/encode/evaluate split keeps the rng draw order and tensor op
// order of full-graph training exactly as they were, so sample_fanout == 0
// reproduces the pre-sampling loss trajectory bit for bit.
//
// Config toggles cover every ablation in the paper:
//  * share_encoders  -> GARCIA-Share (Fig. 3)
//  * use_secl=false  -> GARCIA w.o. SE (Fig. 4)
//  * use_igcl=false  -> GARCIA w.o. IG (Fig. 4)
//  * use_ktcl=use_secl=use_igcl=false -> GARCIA w.o. ALL (Fig. 4)
//  * use_intention=false -> the no-intention reference of Fig. 7
//  * tree_levels     -> H sweep (Fig. 7); alpha/beta/tau -> Figs. 5, 6, 8
//  * inner_product_head -> the online serving variant (Fig. 9)

#ifndef GARCIA_MODELS_GARCIA_MODEL_H_
#define GARCIA_MODELS_GARCIA_MODEL_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "graph/neighbor_sampler.h"
#include "models/common.h"
#include "models/contrastive.h"
#include "models/gnn_encoder.h"
#include "models/intention_encoder.h"
#include "nn/loss.h"

namespace garcia::models {

class GarciaModel : public RankingModel {
 public:
  explicit GarciaModel(const TrainConfig& config);
  ~GarciaModel() override;

  std::string name() const override { return "GARCIA"; }
  void Fit(const data::Scenario& scenario) override;
  std::vector<float> Predict(
      const data::Scenario& scenario,
      const std::vector<data::Example>& examples) override;

  core::Matrix ExportQueryEmbeddings(const data::Scenario& s) override;
  core::Matrix ExportServiceEmbeddings(const data::Scenario& s) override;

  /// Pre-training loss values (test/diagnostic hooks).
  float first_pretrain_loss() const { return first_pretrain_loss_; }
  float last_pretrain_loss() const { return last_pretrain_loss_; }
  float last_finetune_loss() const { return last_finetune_loss_; }
  /// Number of mined KTCL anchor pairs (after Fit).
  size_t num_anchor_pairs() const { return anchors_.size(); }

 private:
  struct Encoded {
    GnnOutput head;
    GnnOutput tail;  // aliases head when encoders are shared
  };

  /// One pre-training step's sampled row sets. Rows are partition-local in
  /// full-graph mode and block-local in sampled mode (graph::SeedSet maps
  /// them); each section's flag records whether its loss term fires, with
  /// the exact gating of the original per-loss functions.
  struct PretrainPlan {
    bool ktcl_query = false;  // Eq. 4, tail->head anchor alignment
    std::vector<uint32_t> kq_tail_rows, kq_head_rows, kq_targets;
    bool ktcl_service = false;  // Eq. 5, two service views
    std::vector<uint32_t> ks_head_rows, ks_tail_rows;
    bool secl_head = false, secl_tail = false;  // Eq. 7, per partition
    std::vector<uint32_t> secl_head_rows, secl_tail_rows;
    bool igcl = false;  // Eq. 9/10, entity-intention alignment
    std::vector<uint32_t> igcl_head_rows, igcl_tail_rows;
    std::vector<uint32_t> igcl_head_intents, igcl_tail_intents;
  };

  /// One click-logits batch: per-partition query/service rows, plus the
  /// same services' rows in the OTHER partition when the inner-product
  /// head scores through the mean of the two views. `order[r]` is the
  /// batch position of logits row r (head-partition examples first).
  struct LogitsPlan {
    std::vector<uint32_t> order;
    std::vector<uint32_t> hq_rows, hs_rows, tq_rows, ts_rows;
    std::vector<uint32_t> hs_other_rows, ts_other_rows;
  };

  /// Builds encoders and partitions for the scenario (first Fit step) and
  /// asserts the encoder/graph shape invariants once.
  void Setup(const data::Scenario& s);
  /// Every trainable parameter, in the fixed optimizer order.
  std::vector<nn::Tensor> CollectParameters() const;
  Encoded EncodeAll() const;
  /// One training step's encoding: the full graph when not sampling;
  /// otherwise each partition with a non-empty seed list samples a
  /// NeighborSampler block and encodes it, head first (the fixed
  /// sample_rng_ draw order). A partition without a block leaves its
  /// output undefined; the step's plan guarantees nothing reads it.
  Encoded EncodeStep(const graph::SeedSet& head_seeds,
                     const graph::SeedSet& tail_seeds);
  /// Post-Fit encoding shared by Predict / the export hooks. Encoding is
  /// deterministic given the fitted parameters (no RNG), so the first call
  /// after Fit computes it and later calls reuse the cached pass. Re-Fit
  /// invalidates the cache (via Setup). The pass runs under an
  /// nn::NoGradScope and the cache keeps only the two readouts (empty
  /// `layers`), as tape-free tensors.
  const Encoded& CachedEncoded() const;

  /// (is_head_partition, local node row) of a query / service within the
  /// partition used for its representation.
  std::pair<bool, uint32_t> QueryRow(uint32_t query) const;
  uint32_t ServiceRow(bool head_partition, uint32_t service) const;

  /// Draws every random sample of one pre-training step (all rng use of
  /// the step) and maps the touched rows through the seed sets.
  PretrainPlan PlanPretrainStep(const data::Scenario& s, core::Rng* rng,
                                graph::SeedSet* head_seeds,
                                graph::SeedSet* tail_seeds) const;
  nn::Tensor PretrainLossFromPlan(const PretrainPlan& plan,
                                  const Encoded& e) const;
  nn::Tensor KtclLossFromPlan(const PretrainPlan& plan,
                              const Encoded& e) const;
  nn::Tensor SeclLossFromPlan(const PretrainPlan& plan,
                              const Encoded& e) const;
  nn::Tensor IgclLossFromPlan(const PretrainPlan& plan,
                              const Encoded& e) const;

  LogitsPlan PlanBatchLogits(const std::vector<data::Example>& examples,
                             const std::vector<uint32_t>& batch,
                             graph::SeedSet* head_seeds,
                             graph::SeedSet* tail_seeds) const;
  nn::Tensor LogitsFromPlan(const LogitsPlan& plan, const Encoded& e) const;

  TrainConfig cfg_;
  core::Rng rng_;
  /// Dedicated sampler stream (cfg_.sample_seed); separate from rng_ so
  /// enabling sampling never shifts the batch/negative draw sequence.
  core::Rng sample_rng_;
  bool fitted_ = false;
  bool sampling_ = false;  // cfg_.sample_fanout > 0

  // Scenario-bound state (built by Setup).
  const data::Scenario* scenario_ = nullptr;
  std::optional<graph::Subgraph> head_sub_;
  std::optional<graph::Subgraph> tail_sub_;
  std::optional<graph::NeighborSampler> head_sampler_;
  std::optional<graph::NeighborSampler> tail_sampler_;
  std::unique_ptr<GarciaGnnEncoder> head_encoder_;
  std::unique_ptr<GarciaGnnEncoder> tail_encoder_;  // null when shared
  std::unique_ptr<IntentionEncoder> intention_encoder_;
  std::unique_ptr<nn::Mlp> click_head_;
  KtclAnchors anchors_;
  /// Cached post-Fit encoding (see CachedEncoded); reset on Setup.
  mutable std::optional<Encoded> encoded_cache_;

  float first_pretrain_loss_ = 0.0f;
  float last_pretrain_loss_ = 0.0f;
  float last_finetune_loss_ = 0.0f;
};

}  // namespace garcia::models

#endif  // GARCIA_MODELS_GARCIA_MODEL_H_
