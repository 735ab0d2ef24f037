#include "bench/bench_common.h"

#include <chrono>
#include <cstdio>
#include <cstdlib>

#include "core/string_util.h"

namespace garcia::bench {

double BenchScale() {
  const char* env = std::getenv("GARCIA_BENCH_SCALE");
  if (env != nullptr) {
    const double v = std::atof(env);
    if (v > 0.0) return v;
  }
  return 0.4;
}

models::TrainConfig DefaultTrainConfig() {
  models::TrainConfig cfg;
  cfg.pretrain_epochs = 4;
  cfg.finetune_epochs = 6;
  cfg.max_batches_per_epoch = 20;
  const char* env = std::getenv("GARCIA_BENCH_SEED");
  if (env != nullptr) cfg.seed = static_cast<uint64_t>(std::atoll(env));
  return cfg;
}

models::TrainConfig PresetTrainConfig(data::DatasetId id) {
  models::TrainConfig cfg = DefaultTrainConfig();
  cfg.sample_fanout = id == data::DatasetId::kSoftware ? 0 : 8;
  const char* env = std::getenv("GARCIA_BENCH_FANOUT");
  if (env != nullptr) {
    const long long v = std::atoll(env);
    if (v >= 0) cfg.sample_fanout = static_cast<size_t>(v);
  }
  return cfg;
}

void PrintBanner(const std::string& artifact, const std::string& what) {
  std::printf("=== %s ===\n%s\n(synthetic substrate, scale %.2f; shapes "
              "reproduce, absolute values do not — see EXPERIMENTS.md)\n\n",
              artifact.c_str(), what.c_str(), BenchScale());
}

eval::SlicedMetrics RunModel(const std::string& model_name,
                             const data::Scenario& scenario,
                             const models::TrainConfig& config) {
  auto model = models::CreateModel(model_name, config);
  const auto t0 = std::chrono::steady_clock::now();
  model->Fit(scenario);
  auto metrics = models::EvaluateModel(model.get(), scenario, scenario.test);
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  std::fprintf(stderr, "  [%s on %s: %.1fs]\n", model_name.c_str(),
               scenario.config.name.c_str(), secs);
  return metrics;
}

std::string Pct(double fraction, int decimals) {
  return core::FormatFixed(fraction * 100.0, decimals) + "%";
}

std::string Delta(double ours, double best_baseline) {
  if (best_baseline <= 0.0) return "(n/a)";
  const double d = (ours - best_baseline) / best_baseline * 100.0;
  return core::StrFormat("(%+.2f%%)", d);
}

}  // namespace garcia::bench
