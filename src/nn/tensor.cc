#include "nn/tensor.h"

#include <unordered_set>

namespace garcia::nn {

namespace internal {

core::Matrix& TensorNode::EnsureGrad() {
  if (grad.empty()) grad = core::Matrix(value.rows(), value.cols());
  return grad;
}

void TensorNode::AccumulateGrad(const core::Matrix& g) {
  GARCIA_CHECK_EQ(g.rows(), value.rows());
  GARCIA_CHECK_EQ(g.cols(), value.cols());
  EnsureGrad().Add(g);
}

}  // namespace internal

namespace {
thread_local bool no_grad_active = false;
}  // namespace

NoGradScope::NoGradScope() : previous_(no_grad_active) {
  no_grad_active = true;
}

NoGradScope::~NoGradScope() { no_grad_active = previous_; }

bool NoGradScope::Active() { return no_grad_active; }

Tensor Tensor::Leaf(core::Matrix value, bool requires_grad) {
  auto node = std::make_shared<internal::TensorNode>();
  node->value = std::move(value);
  node->requires_grad = requires_grad;
  return Tensor(std::move(node));
}

Tensor Tensor::FromOp(core::Matrix value, std::vector<Tensor> parents,
                      std::function<void(internal::TensorNode*)> backward_fn) {
  auto node = std::make_shared<internal::TensorNode>();
  node->value = std::move(value);
  if (no_grad_active) return Tensor(std::move(node));
  bool any_grad = false;
  node->parents.reserve(parents.size());
  for (const Tensor& p : parents) {
    any_grad = any_grad || p.node()->requires_grad;
    node->parents.push_back(p.shared_node());
  }
  node->requires_grad = any_grad;
  if (any_grad) node->backward_fn = std::move(backward_fn);
  return Tensor(std::move(node));
}

const core::Matrix& Tensor::grad() const {
  GARCIA_CHECK(node()->has_grad()) << "no gradient accumulated";
  return node()->grad;
}

void Tensor::ZeroGrad() {
  if (node()->has_grad()) node()->grad.Fill(0.0f);
}

float Tensor::scalar() const {
  GARCIA_CHECK_EQ(rows(), 1u);
  GARCIA_CHECK_EQ(cols(), 1u);
  return value().at(0, 0);
}

void Tensor::Backward() {
  GARCIA_CHECK_EQ(rows(), 1u);
  GARCIA_CHECK_EQ(cols(), 1u);
  internal::TensorNode* root = node();
  GARCIA_CHECK(root->requires_grad)
      << "Backward() on a graph with no grad-requiring leaves"
      << (no_grad_active ? " (a NoGradScope is active on this thread)" : "");

  // Iterative post-order DFS for the reverse topological order.
  std::vector<internal::TensorNode*> topo;
  std::unordered_set<internal::TensorNode*> visited;
  struct Frame {
    internal::TensorNode* node;
    size_t next_parent;
  };
  std::vector<Frame> stack;
  stack.push_back({root, 0});
  visited.insert(root);
  while (!stack.empty()) {
    Frame& f = stack.back();
    if (f.next_parent < f.node->parents.size()) {
      internal::TensorNode* p = f.node->parents[f.next_parent++].get();
      if (p->requires_grad && visited.insert(p).second) {
        stack.push_back({p, 0});
      }
    } else {
      topo.push_back(f.node);
      stack.pop_back();
    }
  }

  // Interior (op-output) gradients are scratch space for this pass; only
  // leaves accumulate across Backward() calls (PyTorch semantics).
  for (internal::TensorNode* n : topo) {
    if (n->backward_fn && n->has_grad()) n->grad.Fill(0.0f);
  }

  root->EnsureGrad().Fill(0.0f);
  root->grad.at(0, 0) = 1.0f;

  // topo is post-order: parents before children; iterate in reverse so each
  // node's grad is complete before it propagates.
  for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
    internal::TensorNode* n = *it;
    if (n->backward_fn && n->has_grad()) n->backward_fn(n);
  }
}

}  // namespace garcia::nn
