// Copyright (c) 2026 GARCIA reproduction authors.
// Shared skeleton for the full-graph GNN baselines (LightGCN, KGAT, SGL,
// SimGCL). Like the paper's extended baselines, all of them consume the
// node/edge attributes of the service search graph and share the same
// two-layer MLP click head and Adam/BCE training loop; they differ only in
// how node embeddings are computed and in optional self-supervised
// auxiliary losses.
//
// Training follows the block protocol of DESIGN.md §5e: with
// TrainConfig::sample_fanout == 0 every step encodes the trivial full-graph
// block (the pre-sampling behavior, bit for bit); with a finite fanout each
// step's batch rows seed a NeighborSampler block and the embedding pass
// runs only over it. Predict and the export hooks always use the full
// graph.

#ifndef GARCIA_MODELS_BASELINE_GNN_H_
#define GARCIA_MODELS_BASELINE_GNN_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/kernels.h"
#include "graph/neighbor_sampler.h"
#include "models/common.h"
#include "models/gnn_encoder.h"
#include "nn/loss.h"
#include "nn/module.h"

namespace garcia::models {

class GnnBaseline : public RankingModel {
 public:
  explicit GnnBaseline(const TrainConfig& config);
  ~GnnBaseline() override;

  void Fit(const data::Scenario& scenario) override;
  std::vector<float> Predict(
      const data::Scenario& scenario,
      const std::vector<data::Example>& examples) override;

  core::Matrix ExportQueryEmbeddings(const data::Scenario& s) override;
  core::Matrix ExportServiceEmbeddings(const data::Scenario& s) override;

 protected:
  /// Creates model-specific modules; base modules (id embedding, attribute
  /// projection, click head) already exist when this runs.
  virtual void BuildModules(const data::Scenario& /*scenario*/) {}

  /// Node embedding matrix for the given block: all graph nodes (full
  /// block) or the block's local nodes with the seed/readout rows first.
  virtual nn::Tensor ComputeEmbeddings(const graph::Block& block) = 0;

  /// Optional self-supervised loss added to BCE; undefined Tensor = none.
  /// Always evaluated on the full graph (see DESIGN.md §5e on why the
  /// auxiliary views of SGL / SimGCL are not sampled).
  virtual nn::Tensor AuxiliaryLoss(core::Rng* /*rng*/) { return nn::Tensor(); }

  /// Extra trainable parameters from BuildModules.
  virtual std::vector<nn::Tensor> ExtraParameters() const { return {}; }

  /// z^(0): id embedding + projected attributes, restricted to the block.
  nn::Tensor BaseEmbeddings(const graph::Block& block) const;

  const data::Scenario* scenario_ = nullptr;
  TrainConfig cfg_;
  core::Rng rng_;
  /// Dedicated sampler stream (cfg_.sample_seed); separate from rng_ so
  /// enabling sampling never shifts batch order or auxiliary-loss draws.
  core::Rng sample_rng_;
  /// Compute backend (0 threads = serial); installed around Fit / Predict /
  /// the export hooks with ScopedExecution.
  core::ExecutionContext exec_;
  std::unique_ptr<nn::Embedding> id_embedding_;
  std::unique_ptr<nn::Linear> attr_proj_;
  std::unique_ptr<nn::Mlp> click_head_;
  /// Trivial all-nodes block of the scenario graph (built by Fit); the
  /// inference path and the full-graph training path run over it.
  graph::Block full_block_;
  std::optional<graph::NeighborSampler> sampler_;
  bool sampling_ = false;  // cfg_.sample_fanout > 0
  bool fitted_ = false;

 private:
  nn::Tensor LogitsFromRows(const nn::Tensor& emb,
                            const std::vector<uint32_t>& q_rows,
                            const std::vector<uint32_t>& s_rows) const;
};

}  // namespace garcia::models

#endif  // GARCIA_MODELS_BASELINE_GNN_H_
