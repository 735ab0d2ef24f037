#include "models/baseline_gnn.h"

namespace garcia::models {

using core::Matrix;
using nn::Tensor;

GnnBaseline::GnnBaseline(const TrainConfig& config)
    : cfg_(config),
      rng_(config.seed),
      sample_rng_(config.sample_seed) {}

GnnBaseline::~GnnBaseline() = default;

Tensor GnnBaseline::BaseEmbeddings(const graph::Block& block) const {
  const graph::SearchGraph& g = scenario_->graph;
  if (block.full_graph) {
    return nn::Add(id_embedding_->Table(),
                   attr_proj_->Forward(Tensor::Constant(g.attributes())));
  }
  Matrix attrs(block.nodes.size(), g.attr_dim());
  for (size_t i = 0; i < block.nodes.size(); ++i) {
    attrs.CopyRowFrom(g.attributes(), block.nodes[i], i);
  }
  return nn::Add(nn::GatherRows(id_embedding_->Table(), block.nodes),
                 attr_proj_->Forward(Tensor::Constant(std::move(attrs))));
}

Tensor GnnBaseline::LogitsFromRows(const Tensor& emb,
                                   const std::vector<uint32_t>& q_rows,
                                   const std::vector<uint32_t>& s_rows) const {
  Tensor zq = nn::GatherRows(emb, q_rows);
  Tensor zs = nn::GatherRows(emb, s_rows);
  if (cfg_.inner_product_head) return nn::RowDot(zq, zs);
  return click_head_->Forward(nn::ConcatCols(zq, zs));
}

void GnnBaseline::Fit(const data::Scenario& s) {
  scenario_ = &s;
  const size_t d = cfg_.embedding_dim;
  id_embedding_ =
      std::make_unique<nn::Embedding>(s.graph.num_nodes(), d, &rng_);
  attr_proj_ =
      std::make_unique<nn::Linear>(s.graph.attr_dim(), d, &rng_);
  click_head_ =
      std::make_unique<nn::Mlp>(std::vector<size_t>{2 * d, d, 1}, &rng_);
  BuildModules(s);

  full_block_ = graph::Block::FullGraph(s.graph);
  sampling_ = cfg_.sample_fanout > 0;
  sample_rng_ = core::Rng(cfg_.sample_seed);  // re-Fit restarts the stream
  if (sampling_) {
    sampler_.emplace(&s.graph, cfg_.num_layers, cfg_.sample_fanout);
  } else {
    sampler_.reset();
  }

  std::vector<Tensor> params = id_embedding_->Parameters();
  auto append = [&params](const std::vector<Tensor>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  append(attr_proj_->Parameters());
  append(click_head_->Parameters());
  append(ExtraParameters());

  // Resume, the optimizer step and snapshots live in TrainLoop (DESIGN.md
  // §5h). Baselines spend the full epoch budget (pretrain + finetune) on
  // the supervised objective, so their total update count matches
  // GARCIA's two-stage schedule. (The reverse choice — equal supervised
  // budgets — lifts GARCIA's head slice but washes out the
  // contrastive-pretraining effect the ablations measure; see
  // EXPERIMENTS.md notes.)
  TrainLoop loop(cfg_, name(), s, params, {&rng_, &sample_rng_}, {},
                 /*num_phases=*/1);
  BatchIterator it(s.train.size(), cfg_.batch_size, &rng_);
  const TrainPhase phase{/*id=*/0,
                         cfg_.finetune_epochs + cfg_.pretrain_epochs,
                         cfg_.max_batches_per_epoch, &it};
  loop.Run(phase, [&](const std::vector<uint32_t>& batch) {
    // Plan: map the batch's node rows (identity on the full graph,
    // block-local collection when sampling) before encoding.
    graph::SeedSet seeds(!sampling_);
    std::vector<uint32_t> q_rows, s_rows;
    q_rows.reserve(batch.size());
    s_rows.reserve(batch.size());
    for (uint32_t bi : batch) {
      q_rows.push_back(seeds.Map(s.graph.QueryNode(s.train[bi].query)));
      s_rows.push_back(seeds.Map(s.graph.ServiceNode(s.train[bi].service)));
    }
    graph::Block sampled;
    if (sampling_) sampled = sampler_->Sample(seeds.seeds(), &sample_rng_);
    Tensor emb = ComputeEmbeddings(sampling_ ? sampled : full_block_);
    Tensor logits = LogitsFromRows(emb, q_rows, s_rows);
    Matrix labels(batch.size(), 1);
    for (size_t i = 0; i < batch.size(); ++i) {
      labels.at(i, 0) = s.train[batch[i]].label;
    }
    Tensor loss = nn::BceWithLogits(logits, labels);
    // SGL / SimGCL's auxiliary views draw rng_ after the batch is planned.
    Tensor aux = AuxiliaryLoss(&rng_);
    if (aux.defined()) {
      loss = nn::Add(loss, nn::Scale(aux, cfg_.ssl_weight));
    }
    return loss;
  });
  fitted_ = true;
}

std::vector<float> GnnBaseline::Predict(
    const data::Scenario& s, const std::vector<data::Example>& examples) {
  GARCIA_CHECK(fitted_) << "Fit must run before Predict";
  GARCIA_CHECK(scenario_ == &s);
  if (examples.empty()) return {};
  nn::NoGradScope no_grad;
  Tensor emb = ComputeEmbeddings(full_block_);
  std::vector<uint32_t> q_rows, s_rows;
  q_rows.reserve(examples.size());
  s_rows.reserve(examples.size());
  for (const data::Example& ex : examples) {
    q_rows.push_back(s.graph.QueryNode(ex.query));
    s_rows.push_back(s.graph.ServiceNode(ex.service));
  }
  Tensor logits = LogitsFromRows(emb, q_rows, s_rows);
  std::vector<float> scores(examples.size());
  for (size_t i = 0; i < scores.size(); ++i) {
    scores[i] = nn::StableSigmoid(logits.value().at(i, 0));
  }
  return scores;
}

core::Matrix GnnBaseline::ExportQueryEmbeddings(const data::Scenario& s) {
  GARCIA_CHECK(fitted_);
  nn::NoGradScope no_grad;
  Tensor emb = ComputeEmbeddings(full_block_);
  Matrix out(s.num_queries(), cfg_.embedding_dim);
  for (uint32_t q = 0; q < s.num_queries(); ++q) {
    out.CopyRowFrom(emb.value(), s.graph.QueryNode(q), q);
  }
  return out;
}

core::Matrix GnnBaseline::ExportServiceEmbeddings(const data::Scenario& s) {
  GARCIA_CHECK(fitted_);
  nn::NoGradScope no_grad;
  Tensor emb = ComputeEmbeddings(full_block_);
  Matrix out(s.num_services(), cfg_.embedding_dim);
  for (uint32_t svc = 0; svc < s.num_services(); ++svc) {
    out.CopyRowFrom(emb.value(), s.graph.ServiceNode(svc), svc);
  }
  return out;
}

}  // namespace garcia::models
