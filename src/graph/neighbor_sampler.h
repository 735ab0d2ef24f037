// Copyright (c) 2026 GARCIA reproduction authors.
// Minibatch block sampling for GNN training (DESIGN.md §5e).
//
// A Block is the L-pass computation structure of one sampled-subgraph
// encode: reverse fanout-bounded neighbor expansion from a seed-node
// frontier, DGL-style. All passes share ONE block-local id space with
// nested prefixes
//   A_L ⊆ A_{L-1} ⊆ ... ⊆ A_0,    A_L = the seeds,
// where seeds get local ids [0, num_seeds) and every outward expansion
// appends newly discovered source nodes. Encoder pass l (0-based, in
// encoder order) updates destination set A_{l+1} (the first
// layers[l].num_dst local nodes) by reading source set A_l (the first
// layers[l].num_src local nodes), so the seed rows are a valid row prefix
// of every intermediate representation and of the readout.
//
// Determinism contract: sampling draws only from the caller's core::Rng,
// in ascending destination order, on the calling thread — blocks are
// bit-identical across runs with equal seeds. Within one destination the
// sampled edges keep ascending global edge order (the full graph's CSR
// order), which makes a fanout=0 block encode bit-identical, row for row,
// to the full-graph encode restricted to the seed closure.

#ifndef GARCIA_GRAPH_NEIGHBOR_SAMPLER_H_
#define GARCIA_GRAPH_NEIGHBOR_SAMPLER_H_

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "core/rng.h"
#include "graph/search_graph.h"

namespace garcia::graph {

/// One encoder pass of a sampled block: compacted edge arrays over
/// block-local node ids, plus the per-edge feature rows in the same order.
struct BlockLayer {
  std::vector<uint32_t> src;  // block-local source node per edge
  std::vector<uint32_t> dst;  // block-local destination per edge, ascending
  core::Matrix edge_feats;    // |edges| x kEdgeFeatureDim, same edge order
  size_t num_dst = 0;         // this pass updates local nodes [0, num_dst)
  size_t num_src = 0;         // and may read local nodes [0, num_src)
};

/// The sampled computation structure for one encode. A Block either
/// carries explicit per-pass layers (sampled mode) or is the trivial
/// all-nodes block (full_graph mode), in which case encode consumers read
/// the graph's own edge arrays directly and `nodes`/`layers` stay empty.
struct Block {
  bool full_graph = false;
  size_t num_graph_nodes = 0;  // nodes of the underlying graph
  size_t num_seeds = 0;
  std::vector<uint32_t> nodes;     // block-local id -> global node id
  std::vector<BlockLayer> layers;  // indexed by encoder pass l = 0..L-1

  /// Rows of the innermost (layer-0) representation.
  size_t num_nodes() const { return full_graph ? num_graph_nodes : nodes.size(); }
  /// Rows of the readout: every node for the full graph, else the seeds.
  size_t num_readout_rows() const {
    return full_graph ? num_graph_nodes : num_seeds;
  }

  /// The trivial all-nodes block (O(1); no edge copies).
  static Block FullGraph(const SearchGraph& g);
};

/// Deterministic fanout-bounded L-hop reverse sampler over one graph.
/// fanout == 0 means "all neighbors": the block reproduces the full graph
/// restricted to the L-hop closure of the seeds.
class NeighborSampler {
 public:
  /// The graph must outlive the sampler and be finalized.
  NeighborSampler(const SearchGraph* g, size_t num_layers, size_t fanout);

  /// Samples a block from distinct seed global node ids. Seed i gets
  /// block-local id i. `rng` is only drawn from when a destination's
  /// degree exceeds the fanout.
  Block Sample(const std::vector<uint32_t>& seeds, core::Rng* rng) const;

  size_t num_layers() const { return num_layers_; }
  size_t fanout() const { return fanout_; }

 private:
  const SearchGraph* g_;
  size_t num_layers_;
  size_t fanout_;
};

/// Collects the distinct node rows a training step touches, in first-use
/// order, assigning each its block-local id — or passes rows through
/// unchanged in identity mode (full-graph training), so the same planning
/// code drives both paths.
class SeedSet {
 public:
  explicit SeedSet(bool identity) : identity_(identity) {}

  /// Identity mode: returns `row`. Collect mode: returns the block-local
  /// id of `row`, registering it as a seed on first use.
  uint32_t Map(uint32_t row) {
    if (identity_) return row;
    auto [it, inserted] =
        pos_.emplace(row, static_cast<uint32_t>(seeds_.size()));
    if (inserted) seeds_.push_back(row);
    return it->second;
  }

  bool identity() const { return identity_; }
  const std::vector<uint32_t>& seeds() const { return seeds_; }

 private:
  bool identity_;
  std::vector<uint32_t> seeds_;
  std::unordered_map<uint32_t, uint32_t> pos_;
};

/// 1/sqrt(degree) per node (0 for isolated nodes). Sampled LightGCN-style
/// propagation weights edges by the FULL graph's degrees — the paper's
/// normalization — not by the degrees of the sampled subgraph.
std::vector<float> InvSqrtDegrees(const SearchGraph& g);

}  // namespace garcia::graph

#endif  // GARCIA_GRAPH_NEIGHBOR_SAMPLER_H_
