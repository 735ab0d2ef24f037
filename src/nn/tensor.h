// Copyright (c) 2026 GARCIA reproduction authors.
// Tape-based reverse-mode automatic differentiation.
//
// A Tensor is a value-semantics handle to a node in a dynamically built
// computation graph. Unless a NoGradScope is active on the calling thread,
// ops (see nn/ops.h) record a tape: each new node links its parents and
// keeps a backward closure that accumulates gradients into them. Calling
// Backward() on a scalar node runs reverse topological order over the
// reachable graph. Under a NoGradScope an op node holds only its value, so
// an inference forward frees each intermediate as soon as its last handle
// drops.
//
// Matches the training loop shape of PyTorch: leaf parameters persist across
// steps, intermediate nodes are released when the last handle drops, and the
// optimizer zeroes parameter gradients between steps.

#ifndef GARCIA_NN_TENSOR_H_
#define GARCIA_NN_TENSOR_H_

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/matrix.h"

namespace garcia::nn {

class Tensor;

namespace internal {

/// One node of the autograd tape.
struct TensorNode {
  core::Matrix value;
  core::Matrix grad;  // allocated on first accumulation
  bool requires_grad = false;
  std::vector<std::shared_ptr<TensorNode>> parents;
  /// Propagates this node's grad into parents' grads. Null for leaves.
  std::function<void(TensorNode*)> backward_fn;

  bool has_grad() const { return !grad.empty(); }
  /// Returns grad, allocating zeros of the value's shape on first use.
  core::Matrix& EnsureGrad();
  /// grad += g (allocating if needed).
  void AccumulateGrad(const core::Matrix& g);
};

}  // namespace internal

/// Thread-local RAII switch for inference: while one is alive on a thread,
/// Tensor::FromOp on that thread records no tape (requires_grad false, no
/// parents, no backward closure). Op forward code is unchanged, so values
/// are byte-identical to a taped pass. Scopes nest; each restores the state
/// it found. Leaves are unaffected.
class NoGradScope {
 public:
  NoGradScope();
  ~NoGradScope();
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

  /// True while a NoGradScope is alive on the calling thread.
  static bool Active();

 private:
  bool previous_;
};

/// Handle to an autograd node. Copy is cheap (shared ownership).
class Tensor {
 public:
  /// Null handle; defined() is false.
  Tensor() = default;

  /// Leaf node. requires_grad marks it as a trainable parameter.
  static Tensor Leaf(core::Matrix value, bool requires_grad = false);

  /// Constant leaf (never receives gradient).
  static Tensor Constant(core::Matrix value) { return Leaf(std::move(value), false); }

  /// Internal: creates an op output node (value only under a NoGradScope).
  static Tensor FromOp(core::Matrix value,
                       std::vector<Tensor> parents,
                       std::function<void(internal::TensorNode*)> backward_fn);

  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node()->value.rows(); }
  size_t cols() const { return node()->value.cols(); }

  const core::Matrix& value() const { return node()->value; }
  core::Matrix& mutable_value() { return node()->value; }

  bool requires_grad() const { return node()->requires_grad; }
  /// Gradient matrix; CHECK-fails if no gradient has been accumulated yet.
  const core::Matrix& grad() const;
  bool has_grad() const { return node()->has_grad(); }
  /// Zeroes (keeps allocation) or drops the gradient.
  void ZeroGrad();

  /// Runs reverse-mode AD from this node, which must be a 1x1 scalar.
  /// Gradients accumulate into every reachable node with requires_grad or
  /// with grad-requiring ancestors.
  void Backward();

  /// Scalar convenience: value of a 1x1 tensor.
  float scalar() const;

  /// Stable identity for maps/sets.
  const void* id() const { return node_.get(); }

  internal::TensorNode* node() const {
    GARCIA_CHECK(node_ != nullptr) << "use of undefined Tensor";
    return node_.get();
  }
  const std::shared_ptr<internal::TensorNode>& shared_node() const { return node_; }

 private:
  explicit Tensor(std::shared_ptr<internal::TensorNode> node)
      : node_(std::move(node)) {}

  std::shared_ptr<internal::TensorNode> node_;
};

}  // namespace garcia::nn

#endif  // GARCIA_NN_TENSOR_H_
