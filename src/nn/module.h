// Copyright (c) 2026 GARCIA reproduction authors.
// Parameter-owning building blocks: Linear, Embedding, Mlp.
//
// A Module owns leaf parameter tensors and/or child modules; Parameters()
// flattens the tree for the optimizer. Parameter tensors persist across
// training steps (the tape is rebuilt every forward pass but leaves are
// shared).
//
// Module forwards are built from nn::ops and run eagerly and serially on
// the autograd tape, so equal seeds give bit-identical gradients.

#ifndef GARCIA_NN_MODULE_H_
#define GARCIA_NN_MODULE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/rng.h"
#include "nn/tensor.h"

namespace garcia::nn {

/// Base class for parameter containers.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  /// All trainable parameters of this module and its children.
  std::vector<Tensor> Parameters() const;

  /// Total number of scalar parameters.
  size_t NumParameters() const;

  /// Copies parameter values from another module with identical structure.
  /// Used to initialize fine-tuning from pre-trained weights.
  void CopyParametersFrom(const Module& other);

 protected:
  Module() = default;

  /// Registers a trainable parameter initialized with the given values.
  Tensor RegisterParameter(core::Matrix init);

  /// Registers a child whose parameters are included in Parameters().
  /// The child must outlive this module (typically a member).
  void RegisterChild(Module* child);

 private:
  std::vector<Tensor> params_;
  std::vector<Module*> children_;
};

/// y = x @ W + b (bias optional). W is (in x out); Xavier-initialized.
class Linear : public Module {
 public:
  Linear(size_t in_dim, size_t out_dim, core::Rng* rng, bool bias = true);

  Tensor Forward(const Tensor& x) const;

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 private:
  size_t in_dim_;
  size_t out_dim_;
  Tensor weight_;
  Tensor bias_;  // undefined when constructed with bias=false
};

/// Learnable embedding table (N x D), N entities.
class Embedding : public Module {
 public:
  Embedding(size_t num_entities, size_t dim, core::Rng* rng,
            float init_scale = 0.1f);

  /// Rows for the given ids.
  Tensor Forward(const std::vector<uint32_t>& ids) const;

  /// The full table as a tensor (full-graph GNN input).
  const Tensor& Table() const { return table_; }

  size_t num_entities() const { return table_.rows(); }
  size_t dim() const { return table_.cols(); }

 private:
  Tensor table_;
};

/// Multi-layer perceptron with ReLU between layers; the final layer is
/// linear (callers apply their own head activation).
class Mlp : public Module {
 public:
  /// dims = {in, hidden..., out}; at least {in, out}.
  Mlp(const std::vector<size_t>& dims, core::Rng* rng);

  Tensor Forward(const Tensor& x) const;

  size_t num_layers() const { return layers_.size(); }

 private:
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace garcia::nn

#endif  // GARCIA_NN_MODULE_H_
