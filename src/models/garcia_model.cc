#include "models/garcia_model.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "core/logging.h"

namespace garcia::models {

using core::Matrix;
using nn::Tensor;

GarciaModel::GarciaModel(const TrainConfig& config)
    : cfg_(config),
      rng_(config.seed),
      sample_rng_(config.sample_seed),
      exec_(config.num_threads) {}

GarciaModel::~GarciaModel() = default;

void GarciaModel::Setup(const data::Scenario& s) {
  scenario_ = &s;
  encoded_cache_.reset();  // re-Fit invalidates any post-Fit encoding
  sample_rng_ = core::Rng(cfg_.sample_seed);  // re-Fit restarts the stream
  sampling_ = cfg_.sample_fanout > 0;
  const size_t d = cfg_.embedding_dim;

  if (cfg_.share_encoders) {
    // GARCIA-Share: one unified encoder over the full graph.
    std::vector<uint32_t> all_queries(s.num_queries());
    for (uint32_t q = 0; q < s.num_queries(); ++q) all_queries[q] = q;
    head_sub_.emplace(graph::ExtractQuerySubgraph(s.graph, all_queries));
    tail_sub_.reset();
    head_encoder_ = std::make_unique<GarciaGnnEncoder>(
        head_sub_->graph.num_nodes(), s.graph.attr_dim(), d, cfg_.num_layers,
        &rng_, cfg_.use_attention);
    tail_encoder_.reset();
  } else {
    head_sub_.emplace(
        graph::ExtractQuerySubgraph(s.graph, s.split.head_queries));
    tail_sub_.emplace(
        graph::ExtractQuerySubgraph(s.graph, s.split.tail_queries));
    head_encoder_ = std::make_unique<GarciaGnnEncoder>(
        head_sub_->graph.num_nodes(), s.graph.attr_dim(), d, cfg_.num_layers,
        &rng_, cfg_.use_attention);
    tail_encoder_ = std::make_unique<GarciaGnnEncoder>(
        tail_sub_->graph.num_nodes(), s.graph.attr_dim(), d, cfg_.num_layers,
        &rng_, cfg_.use_attention);
  }

  // Encoder/graph shape invariants, asserted once per Setup instead of on
  // every encode consumer.
  GARCIA_CHECK(head_sub_->graph.finalized());
  GARCIA_CHECK_EQ(head_sub_->graph.attr_dim(), s.graph.attr_dim());
  GARCIA_CHECK_EQ(head_encoder_->num_nodes(), head_sub_->graph.num_nodes());
  GARCIA_CHECK_EQ(head_sub_->global_query_ids.size() + s.num_services(),
                  head_sub_->graph.num_nodes());
  if (!cfg_.share_encoders) {
    GARCIA_CHECK(tail_sub_->graph.finalized());
    GARCIA_CHECK_EQ(tail_sub_->graph.attr_dim(), s.graph.attr_dim());
    GARCIA_CHECK_EQ(tail_encoder_->num_nodes(), tail_sub_->graph.num_nodes());
    GARCIA_CHECK_EQ(tail_sub_->global_query_ids.size() + s.num_services(),
                    tail_sub_->graph.num_nodes());
  }

  if (sampling_) {
    // The optionals' storage is stable, so the samplers may hold graph
    // pointers across the whole Fit.
    head_sampler_.emplace(&head_sub_->graph, cfg_.num_layers,
                          cfg_.sample_fanout);
    if (cfg_.share_encoders) {
      tail_sampler_.reset();
    } else {
      tail_sampler_.emplace(&tail_sub_->graph, cfg_.num_layers,
                            cfg_.sample_fanout);
    }
  } else {
    head_sampler_.reset();
    tail_sampler_.reset();
  }

  if (cfg_.use_intention) {
    intention_encoder_ = std::make_unique<IntentionEncoder>(
        s.forest, d, cfg_.tree_levels, &rng_);
  } else {
    intention_encoder_.reset();
  }

  // Eq. 12: two-layer perceptron on [z_q || z_s].
  click_head_ = std::make_unique<nn::Mlp>(
      std::vector<size_t>{2 * d, d, 1}, &rng_);

  anchors_ = MineKtclAnchors(s, cfg_.ktcl_ngram_mining
                                    ? KtclRelevance::kNgramCosine
                                    : KtclRelevance::kTokenJaccard);
  GARCIA_LOG(Debug) << "GARCIA setup: " << anchors_.size()
                    << " KTCL anchor pairs, head nodes "
                    << head_sub_->graph.num_nodes();
}

std::vector<Tensor> GarciaModel::CollectParameters() const {
  std::vector<Tensor> params = head_encoder_->Parameters();
  auto append = [&params](const std::vector<Tensor>& more) {
    params.insert(params.end(), more.begin(), more.end());
  };
  if (tail_encoder_) append(tail_encoder_->Parameters());
  if (intention_encoder_) append(intention_encoder_->Parameters());
  append(click_head_->Parameters());
  return params;
}

GarciaModel::Encoded GarciaModel::EncodeAll() const {
  Encoded e;
  e.head = head_encoder_->Encode(head_sub_->graph);
  if (cfg_.share_encoders) {
    e.tail = e.head;
  } else {
    e.tail = tail_encoder_->Encode(tail_sub_->graph);
  }
  return e;
}

GarciaModel::Encoded GarciaModel::EncodeStep(const graph::SeedSet& head_seeds,
                                             const graph::SeedSet& tail_seeds) {
  if (!sampling_) return EncodeAll();
  Encoded e;
  if (!head_seeds.seeds().empty()) {
    e.head = head_encoder_->EncodeBlock(
        head_sub_->graph,
        head_sampler_->Sample(head_seeds.seeds(), &sample_rng_));
  }
  if (cfg_.share_encoders) {
    e.tail = e.head;
  } else if (!tail_seeds.seeds().empty()) {
    e.tail = tail_encoder_->EncodeBlock(
        tail_sub_->graph,
        tail_sampler_->Sample(tail_seeds.seeds(), &sample_rng_));
  }
  return e;
}

const GarciaModel::Encoded& GarciaModel::CachedEncoded() const {
  if (!encoded_cache_.has_value()) {
    // No tape: each layer's per-edge temporaries free as the pass moves on.
    nn::NoGradScope no_grad;
    encoded_cache_ = EncodeAll();
    // Predict and the exports read only the readouts.
    encoded_cache_->head.layers.clear();
    encoded_cache_->tail.layers.clear();
  }
  return *encoded_cache_;
}

std::pair<bool, uint32_t> GarciaModel::QueryRow(uint32_t query) const {
  if (cfg_.share_encoders) {
    return {true, static_cast<uint32_t>(head_sub_->local_query_of[query])};
  }
  if (scenario_->split.is_head[query]) {
    return {true, static_cast<uint32_t>(head_sub_->local_query_of[query])};
  }
  return {false, static_cast<uint32_t>(tail_sub_->local_query_of[query])};
}

uint32_t GarciaModel::ServiceRow(bool head_partition, uint32_t service) const {
  const graph::Subgraph& sub =
      (head_partition || cfg_.share_encoders) ? *head_sub_ : *tail_sub_;
  return sub.graph.ServiceNode(service);
}

GarciaModel::PretrainPlan GarciaModel::PlanPretrainStep(
    const data::Scenario& s, core::Rng* rng, graph::SeedSet* head_seeds,
    graph::SeedSet* tail_seeds) const {
  PretrainPlan plan;

  if (cfg_.use_ktcl) {
    // Query side (Eq. 4): pull each tail query toward its mined head
    // anchor, against in-batch head negatives.
    if (anchors_.size() >= 2) {
      const size_t b = std::min(cfg_.cl_batch_size, anchors_.size());
      auto picks = rng->SampleWithoutReplacement(anchors_.size(), b);
      std::vector<uint32_t> tail_rows, head_rows, targets;
      std::unordered_map<uint32_t, uint32_t> head_pos;
      for (size_t i : picks) {
        const uint32_t tq = anchors_.tail_query[i];
        const uint32_t hq = anchors_.head_query[i];
        tail_rows.push_back(tail_seeds->Map(QueryRow(tq).second));
        auto [it, inserted] =
            head_pos.emplace(hq, static_cast<uint32_t>(head_rows.size()));
        if (inserted) head_rows.push_back(head_seeds->Map(QueryRow(hq).second));
        targets.push_back(it->second);
      }
      if (head_rows.size() >= 2) {
        plan.ktcl_query = true;
        plan.kq_tail_rows = std::move(tail_rows);
        plan.kq_head_rows = std::move(head_rows);
        plan.kq_targets = std::move(targets);
      }
    }

    // Service side (Eq. 5): align the two views of each service.
    const size_t b = std::min<size_t>(cfg_.cl_batch_size, s.num_services());
    if (b >= 2) {
      auto picks = rng->SampleWithoutReplacement(s.num_services(), b);
      plan.ktcl_service = true;
      for (size_t i = 0; i < picks.size(); ++i) {
        const uint32_t svc = static_cast<uint32_t>(picks[i]);
        plan.ks_head_rows.push_back(head_seeds->Map(ServiceRow(true, svc)));
        plan.ks_tail_rows.push_back(tail_seeds->Map(ServiceRow(false, svc)));
      }
    }
  }

  if (cfg_.use_secl && cfg_.alpha > 0.0f) {
    // Eq. 7 anchors z^{(0)} rows against z^{(l)} rows per partition.
    auto plan_partition = [&](size_t n, graph::SeedSet* seeds,
                              std::vector<uint32_t>* rows, bool* fires) {
      const size_t b = std::min<size_t>(cfg_.cl_batch_size, n);
      if (b < 2 || cfg_.num_layers + 1 < 2) return;
      auto picks = rng->SampleWithoutReplacement(n, b);
      *fires = true;
      rows->reserve(b);
      for (size_t p : picks) {
        rows->push_back(seeds->Map(static_cast<uint32_t>(p)));
      }
    };
    plan_partition(head_sub_->graph.num_nodes(), head_seeds,
                   &plan.secl_head_rows, &plan.secl_head);
    if (!cfg_.share_encoders) {
      plan_partition(tail_sub_->graph.num_nodes(), tail_seeds,
                     &plan.secl_tail_rows, &plan.secl_tail);
    }
  }

  if (cfg_.use_igcl && cfg_.beta > 0.0f && intention_encoder_ != nullptr) {
    // Entity batch: half queries, half services, routed to the partition
    // that carries their representation.
    const size_t half = std::max<size_t>(1, cfg_.cl_batch_size / 2);
    const size_t nq = std::min(half, s.num_queries());
    const size_t ns = std::min(half, s.num_services());
    auto q_picks = rng->SampleWithoutReplacement(s.num_queries(), nq);
    for (size_t qi : q_picks) {
      const uint32_t q = static_cast<uint32_t>(qi);
      auto [is_head, row] = QueryRow(q);
      if (is_head) {
        plan.igcl_head_rows.push_back(head_seeds->Map(row));
        plan.igcl_head_intents.push_back(s.query_intent[q]);
      } else {
        plan.igcl_tail_rows.push_back(tail_seeds->Map(row));
        plan.igcl_tail_intents.push_back(s.query_intent[q]);
      }
    }
    auto s_picks = rng->SampleWithoutReplacement(s.num_services(), ns);
    for (size_t si : s_picks) {
      const uint32_t svc = static_cast<uint32_t>(si);
      // Alternate partitions so both service views receive the signal.
      const bool head_side = cfg_.share_encoders || (svc % 2 == 0);
      if (head_side) {
        plan.igcl_head_rows.push_back(head_seeds->Map(ServiceRow(true, svc)));
        plan.igcl_head_intents.push_back(s.service_intent[svc]);
      } else {
        plan.igcl_tail_rows.push_back(tail_seeds->Map(ServiceRow(false, svc)));
        plan.igcl_tail_intents.push_back(s.service_intent[svc]);
      }
    }
    plan.igcl = true;
  }

  return plan;
}

Tensor GarciaModel::KtclLossFromPlan(const PretrainPlan& plan,
                                     const Encoded& e) const {
  std::vector<Tensor> terms;
  if (plan.ktcl_query) {
    Tensor anchors_t = nn::GatherRows(e.tail.readout, plan.kq_tail_rows);
    Tensor cands_t = nn::GatherRows(e.head.readout, plan.kq_head_rows);
    terms.push_back(nn::InfoNce(anchors_t, cands_t, plan.kq_targets,
                                cfg_.tau));
  }
  if (plan.ktcl_service) {
    const size_t b = plan.ks_head_rows.size();
    std::vector<uint32_t> identity(b);
    for (size_t i = 0; i < b; ++i) identity[i] = static_cast<uint32_t>(i);
    Tensor zh = nn::GatherRows(e.head.readout, plan.ks_head_rows);
    Tensor zt = nn::GatherRows(e.tail.readout, plan.ks_tail_rows);
    terms.push_back(nn::Add(nn::InfoNce(zh, zt, identity, cfg_.tau),
                            nn::InfoNce(zt, zh, identity, cfg_.tau)));
  }
  if (terms.empty()) return Tensor::Constant(Matrix(1, 1));
  Tensor total = terms[0];
  for (size_t i = 1; i < terms.size(); ++i) total = nn::Add(total, terms[i]);
  return total;
}

Tensor GarciaModel::SeclLossFromPlan(const PretrainPlan& plan,
                                     const Encoded& e) const {
  // Eq. 7: anchor z^{(0)}, positives z^{(l)} of the same node, in-batch
  // negatives; applied per partition, averaged over layers.
  std::vector<Tensor> terms;
  auto add_partition = [&](const GnnOutput& out,
                           const std::vector<uint32_t>& rows) {
    const size_t b = rows.size();
    std::vector<uint32_t> identity(b);
    for (size_t i = 0; i < b; ++i) identity[i] = static_cast<uint32_t>(i);
    Tensor z0 = nn::GatherRows(out.layers[0], rows);
    std::vector<Tensor> per_layer;
    for (size_t l = 1; l < out.layers.size(); ++l) {
      Tensor zl = nn::GatherRows(out.layers[l], rows);
      per_layer.push_back(nn::InfoNce(z0, zl, identity, cfg_.tau));
    }
    terms.push_back(nn::Average(per_layer));
  };
  if (plan.secl_head) add_partition(e.head, plan.secl_head_rows);
  if (plan.secl_tail) add_partition(e.tail, plan.secl_tail_rows);

  if (terms.empty()) return Tensor::Constant(Matrix(1, 1));
  Tensor total = terms[0];
  for (size_t i = 1; i < terms.size(); ++i) total = nn::Add(total, terms[i]);
  return total;
}

Tensor GarciaModel::IgclLossFromPlan(const PretrainPlan& plan,
                                     const Encoded& e) const {
  GARCIA_CHECK(intention_encoder_ != nullptr);
  const std::vector<uint32_t>& head_rows = plan.igcl_head_rows;
  const std::vector<uint32_t>& tail_rows = plan.igcl_tail_rows;

  // Assemble the entity embedding batch (head rows then tail rows).
  Tensor entity_emb;
  std::vector<uint32_t> intents = plan.igcl_head_intents;
  intents.insert(intents.end(), plan.igcl_tail_intents.begin(),
                 plan.igcl_tail_intents.end());
  if (intents.empty()) return Tensor::Constant(Matrix(1, 1));
  if (!head_rows.empty() && !tail_rows.empty()) {
    entity_emb = nn::ConcatRows(nn::GatherRows(e.head.readout, head_rows),
                                nn::GatherRows(e.tail.readout, tail_rows));
  } else if (!head_rows.empty()) {
    entity_emb = nn::GatherRows(e.head.readout, head_rows);
  } else {
    entity_emb = nn::GatherRows(e.tail.readout, tail_rows);
  }

  IgclBatch batch = BuildIgclBatch(*intention_encoder_, intents);
  if (batch.num_pairs() == 0 || batch.candidate_ids.size() < 2) {
    return Tensor::Constant(Matrix(1, 1));
  }
  Tensor intent_table = intention_encoder_->Encode();
  Tensor anchors_t = nn::GatherRows(entity_emb, batch.anchor_rows);
  Tensor cands = nn::GatherRows(intent_table, batch.candidate_ids);
  return nn::MaskedInfoNce(anchors_t, cands, batch.targets, batch.mask,
                           cfg_.tau);
}

Tensor GarciaModel::PretrainLossFromPlan(const PretrainPlan& plan,
                                         const Encoded& e) const {
  // Eq. 11: L_P = L_KTCL + alpha L_SECL + beta L_IGCL.
  Tensor total = Tensor::Constant(Matrix(1, 1));
  if (cfg_.use_ktcl) total = nn::Add(total, KtclLossFromPlan(plan, e));
  if (cfg_.use_secl && cfg_.alpha > 0.0f) {
    total = nn::Add(total, nn::Scale(SeclLossFromPlan(plan, e), cfg_.alpha));
  }
  if (cfg_.use_igcl && cfg_.beta > 0.0f && intention_encoder_ != nullptr) {
    total = nn::Add(total, nn::Scale(IgclLossFromPlan(plan, e), cfg_.beta));
  }
  return total;
}

GarciaModel::LogitsPlan GarciaModel::PlanBatchLogits(
    const std::vector<data::Example>& examples,
    const std::vector<uint32_t>& batch, graph::SeedSet* head_seeds,
    graph::SeedSet* tail_seeds) const {
  LogitsPlan plan;
  // The other-partition view rows only seed the block when the
  // inner-product head actually averages the two service views.
  const bool wants_other = cfg_.inner_product_head && !cfg_.share_encoders;
  std::vector<uint32_t> head_order, tail_order;
  for (uint32_t bi : batch) {
    const data::Example& ex = examples[bi];
    auto [is_head, qrow] = QueryRow(ex.query);
    if (is_head) {
      plan.hq_rows.push_back(head_seeds->Map(qrow));
      plan.hs_rows.push_back(head_seeds->Map(ServiceRow(true, ex.service)));
      if (wants_other) {
        plan.hs_other_rows.push_back(
            tail_seeds->Map(ServiceRow(false, ex.service)));
      }
      head_order.push_back(bi);
    } else {
      plan.tq_rows.push_back(tail_seeds->Map(qrow));
      plan.ts_rows.push_back(tail_seeds->Map(ServiceRow(false, ex.service)));
      if (wants_other) {
        plan.ts_other_rows.push_back(
            head_seeds->Map(ServiceRow(true, ex.service)));
      }
      tail_order.push_back(bi);
    }
  }
  plan.order.reserve(batch.size());
  plan.order.insert(plan.order.end(), head_order.begin(), head_order.end());
  plan.order.insert(plan.order.end(), tail_order.begin(), tail_order.end());
  return plan;
}

Tensor GarciaModel::LogitsFromPlan(const LogitsPlan& plan,
                                   const Encoded& e) const {
  // With the online inner-product head, services must be scored through
  // the SAME single embedding that is exported for retrieval (the mean of
  // the two aligned views) — otherwise training and serving diverge.
  auto make_side = [&](bool head_partition) -> Tensor {
    const GnnOutput& out = head_partition ? e.head : e.tail;
    const std::vector<uint32_t>& q = head_partition ? plan.hq_rows
                                                    : plan.tq_rows;
    const std::vector<uint32_t>& sv = head_partition ? plan.hs_rows
                                                     : plan.ts_rows;
    Tensor zq = nn::GatherRows(out.readout, q);
    Tensor zs = nn::GatherRows(out.readout, sv);
    if (cfg_.inner_product_head && !cfg_.share_encoders) {
      const GnnOutput& other = head_partition ? e.tail : e.head;
      const std::vector<uint32_t>& sv_other =
          head_partition ? plan.hs_other_rows : plan.ts_other_rows;
      Tensor z_other = nn::GatherRows(other.readout, sv_other);
      zs = nn::Scale(nn::Add(zs, z_other), 0.5f);
    }
    if (cfg_.inner_product_head) return nn::RowDot(zq, zs);
    return click_head_->Forward(nn::ConcatCols(zq, zs));
  };

  const bool has_head = !plan.hq_rows.empty();
  const bool has_tail = !plan.tq_rows.empty();
  if (has_head && has_tail) {
    return nn::ConcatRows(make_side(true), make_side(false));
  }
  if (has_head) return make_side(true);
  GARCIA_CHECK(has_tail);
  return make_side(false);
}

void GarciaModel::Fit(const data::Scenario& s) {
  core::ScopedExecution exec_scope(&exec_);
  Setup(s);
  // Resume, the optimizer step and snapshots live in TrainLoop (DESIGN.md
  // §5h). Every stochastic draw flows through rng_/sample_rng_, so a
  // restored snapshot replays the uninterrupted trajectory bit for bit.
  TrainLoop loop(cfg_, name(), s, CollectParameters(), {&rng_, &sample_rng_},
                 {&first_pretrain_loss_, &last_pretrain_loss_,
                  &last_finetune_loss_},
                 /*num_phases=*/2);

  // Each step plans (all rng_ draws), encodes (the full graph, or blocks
  // sampled from the plan's seed rows), then evaluates the loss against the
  // plan. When encoders are shared, head and tail rows live in one space,
  // so both plan sides feed a single seed set.
  auto plan_seeds = [this](graph::SeedSet* head_store,
                           graph::SeedSet* tail_store) -> graph::SeedSet* {
    return cfg_.share_encoders ? head_store : tail_store;
  };

  // ---- Pre-training (Sec. IV-C1) ----
  const bool any_cl = cfg_.use_ktcl || cfg_.use_secl || cfg_.use_igcl;
  const TrainPhase pretrain{
      /*id=*/0, any_cl ? cfg_.pretrain_epochs : 0,
      std::max<size_t>(1, cfg_.max_batches_per_epoch / 2), nullptr};
  loop.Run(pretrain, [&](const std::vector<uint32_t>&) {
    graph::SeedSet head_seeds(!sampling_);
    graph::SeedSet tail_store(!sampling_);
    graph::SeedSet* tail_seeds = plan_seeds(&head_seeds, &tail_store);
    const PretrainPlan plan =
        PlanPretrainStep(s, &rng_, &head_seeds, tail_seeds);
    Tensor loss = PretrainLossFromPlan(plan, EncodeStep(head_seeds,
                                                        *tail_seeds));
    // Pre-training is the first phase: global step 0 is its first step.
    if (loop.global_step() == 0) first_pretrain_loss_ = loss.scalar();
    last_pretrain_loss_ = loss.scalar();
    return loss;
  });

  // ---- Fine-tuning (Sec. IV-C2): pre-trained parameters initialize the
  // search-task training. ----
  BatchIterator it(s.train.size(), cfg_.batch_size, &rng_);
  const TrainPhase finetune{/*id=*/1, cfg_.finetune_epochs,
                            cfg_.max_batches_per_epoch, &it};
  loop.Run(finetune, [&](const std::vector<uint32_t>& batch) {
    graph::SeedSet head_seeds(!sampling_);
    graph::SeedSet tail_store(!sampling_);
    graph::SeedSet* tail_seeds = plan_seeds(&head_seeds, &tail_store);
    const LogitsPlan plan =
        PlanBatchLogits(s.train, batch, &head_seeds, tail_seeds);
    Tensor logits = LogitsFromPlan(plan, EncodeStep(head_seeds, *tail_seeds));
    Matrix labels(plan.order.size(), 1);
    for (size_t i = 0; i < plan.order.size(); ++i) {
      labels.at(i, 0) = s.train[plan.order[i]].label;
    }
    Tensor loss = nn::BceWithLogits(logits, labels);
    last_finetune_loss_ = loss.scalar();
    return loss;
  });
  fitted_ = true;
}

std::vector<float> GarciaModel::Predict(
    const data::Scenario& s, const std::vector<data::Example>& examples) {
  GARCIA_CHECK(fitted_) << "Fit must run before Predict";
  GARCIA_CHECK(scenario_ == &s) << "Predict on a different scenario";
  if (examples.empty()) return {};
  core::ScopedExecution exec_scope(&exec_);
  nn::NoGradScope no_grad;
  const Encoded& e = CachedEncoded();
  std::vector<uint32_t> batch(examples.size());
  for (size_t i = 0; i < batch.size(); ++i) batch[i] = static_cast<uint32_t>(i);
  // Inference always scores against the cached full-graph pass, so the
  // plan rows stay partition-local (identity seed sets).
  graph::SeedSet head_seeds(/*identity=*/true);
  graph::SeedSet tail_seeds(/*identity=*/true);
  LogitsPlan plan = PlanBatchLogits(examples, batch, &head_seeds, &tail_seeds);
  Tensor logits = LogitsFromPlan(plan, e);
  std::vector<float> scores(examples.size(), 0.0f);
  for (size_t r = 0; r < plan.order.size(); ++r) {
    scores[plan.order[r]] = nn::StableSigmoid(logits.value().at(r, 0));
  }
  return scores;
}

core::Matrix GarciaModel::ExportQueryEmbeddings(const data::Scenario& s) {
  GARCIA_CHECK(fitted_);
  GARCIA_CHECK(scenario_ == &s);
  core::ScopedExecution exec_scope(&exec_);
  const Encoded& e = CachedEncoded();
  Matrix out(s.num_queries(), cfg_.embedding_dim);
  for (uint32_t q = 0; q < s.num_queries(); ++q) {
    auto [is_head, row] = QueryRow(q);
    const Matrix& src =
        is_head ? e.head.readout.value() : e.tail.readout.value();
    out.CopyRowFrom(src, row, q);
  }
  return out;
}

core::Matrix GarciaModel::ExportServiceEmbeddings(const data::Scenario& s) {
  GARCIA_CHECK(fitted_);
  GARCIA_CHECK(scenario_ == &s);
  core::ScopedExecution exec_scope(&exec_);
  const Encoded& e = CachedEncoded();
  Matrix out(s.num_services(), cfg_.embedding_dim);
  for (uint32_t svc = 0; svc < s.num_services(); ++svc) {
    const uint32_t hrow = ServiceRow(true, svc);
    if (cfg_.share_encoders) {
      out.CopyRowFrom(e.head.readout.value(), hrow, svc);
      continue;
    }
    // Services carry two aligned views (KTCL, Eq. 5); serve their mean.
    const uint32_t trow = ServiceRow(false, svc);
    for (size_t k = 0; k < cfg_.embedding_dim; ++k) {
      out.at(svc, k) = 0.5f * (e.head.readout.value().at(hrow, k) +
                               e.tail.readout.value().at(trow, k));
    }
  }
  return out;
}

}  // namespace garcia::models
