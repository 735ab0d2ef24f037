// Copyright (c) 2026 GARCIA reproduction authors.
// Shared helpers for the per-table / per-figure benchmark binaries.
//
// Every binary regenerates one artifact of the paper's evaluation section
// and prints it in the paper's layout, with the paper's published values
// quoted alongside where useful. Because the substrate is a ~1000x-smaller
// synthetic scenario (see DESIGN.md §2), absolute numbers differ from the
// paper; the reproduced object is the SHAPE: orderings, relative margins
// and sweep curvature. EXPERIMENTS.md records paper-vs-measured per
// artifact.
//
// Environment knobs:
//   GARCIA_BENCH_SCALE    dataset scale multiplier (default 0.4)
//   GARCIA_BENCH_SEED     training seed (default 7)

#ifndef GARCIA_BENCH_BENCH_COMMON_H_
#define GARCIA_BENCH_BENCH_COMMON_H_

#include <string>

#include "core/table.h"
#include "data/presets.h"
#include "eval/metrics.h"
#include "models/common.h"
#include "models/registry.h"

namespace garcia::bench {

/// Dataset scale for this run (see header comment).
double BenchScale();

/// The shared hyper-parameter set (paper Sec. V-B3, scaled).
models::TrainConfig DefaultTrainConfig();

/// DefaultTrainConfig specialized to a dataset preset: the larger presets
/// (the industrial Sep. windows, Video game, Music) train on sampled
/// minibatch blocks (`sample_fanout = 8`, DESIGN.md §5e — bit-verified
/// against full-graph training, so flipping it only trades exact gradients
/// for per-step cost); the smallest preset (Software) keeps full-graph
/// encoding. GARCIA_BENCH_FANOUT overrides for every preset (0 = full
/// graph).
models::TrainConfig PresetTrainConfig(data::DatasetId id);

/// Prints the bench banner: artifact id, description, scale.
void PrintBanner(const std::string& artifact, const std::string& what);

/// Trains `model_name` on `scenario` and evaluates on its test split.
eval::SlicedMetrics RunModel(const std::string& model_name,
                             const data::Scenario& scenario,
                             const models::TrainConfig& config);

/// "93.57%"-style percentage.
std::string Pct(double fraction, int decimals = 2);

/// Signed percentage delta "(+2.50%)".
std::string Delta(double ours, double best_baseline);

}  // namespace garcia::bench

#endif  // GARCIA_BENCH_BENCH_COMMON_H_
