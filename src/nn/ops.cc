#include "nn/ops.h"

#include <algorithm>
#include <cmath>

#include "core/kernels.h"
#include "core/rng.h"

namespace garcia::nn {

using core::Matrix;
using internal::TensorNode;

namespace kernels = core::kernels;

namespace {

/// Parent node i of an op output.
TensorNode* Parent(TensorNode* out, size_t i) { return out->parents[i].get(); }

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.cols(), b.rows());
  Matrix out = Matrix::Matmul(a.value(), b.value());
  return Tensor::FromOp(std::move(out), {a, b}, [](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    if (pa->requires_grad) {
      // dA += dC @ B^T
      Matrix::Gemm(false, true, 1.0f, n->grad, pb->value, 1.0f,
                   &pa->EnsureGrad());
    }
    if (pb->requires_grad) {
      // dB += A^T @ dC. m = A's column count (often a small hidden dim);
      // the kernel's 2-D tile grid still parallelizes this over columns
      // and refined row blocks rather than collapsing onto row shards.
      Matrix::Gemm(true, false, 1.0f, pa->value, n->grad, 1.0f,
                   &pb->EnsureGrad());
    }
  });
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), b.rows());
  Matrix::Gemm(false, true, 1.0f, a.value(), b.value(), 0.0f, &out);
  return Tensor::FromOp(std::move(out), {a, b}, [](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    if (pa->requires_grad) {
      // C = A B^T  =>  dA += dC @ B
      Matrix::Gemm(false, false, 1.0f, n->grad, pb->value, 1.0f,
                   &pa->EnsureGrad());
    }
    if (pb->requires_grad) {
      // dB += dC^T @ A
      Matrix::Gemm(true, false, 1.0f, n->grad, pa->value, 1.0f,
                   &pb->EnsureGrad());
    }
  });
}

Tensor Transpose(const Tensor& x) {
  Matrix out(x.cols(), x.rows());
  for (size_t i = 0; i < x.rows(); ++i) {
    for (size_t j = 0; j < x.cols(); ++j) out.at(j, i) = x.value().at(i, j);
  }
  return Tensor::FromOp(std::move(out), {x}, [](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (!p->requires_grad) return;
    Matrix& g = p->EnsureGrad();
    for (size_t i = 0; i < n->grad.rows(); ++i) {
      for (size_t j = 0; j < n->grad.cols(); ++j) {
        g.at(j, i) += n->grad.at(i, j);
      }
    }
  });
}

Tensor Add(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.rows(), b.rows());
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  Matrix out = a.value();
  out.Add(b.value());
  return Tensor::FromOp(std::move(out), {a, b}, [](TensorNode* n) {
    for (int i = 0; i < 2; ++i) {
      TensorNode* p = Parent(n, i);
      if (p->requires_grad) p->AccumulateGrad(n->grad);
    }
  });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.rows(), b.rows());
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  Matrix out = a.value();
  out.Sub(b.value());
  return Tensor::FromOp(std::move(out), {a, b}, [](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    if (pa->requires_grad) pa->AccumulateGrad(n->grad);
    if (pb->requires_grad) {
      Matrix neg = n->grad;
      neg.Scale(-1.0f);
      pb->AccumulateGrad(neg);
    }
  });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.rows(), b.rows());
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  Matrix out = a.value();
  out.Hadamard(b.value());
  return Tensor::FromOp(std::move(out), {a, b}, [](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    if (pa->requires_grad) {
      Matrix g = n->grad;
      g.Hadamard(pb->value);
      pa->AccumulateGrad(g);
    }
    if (pb->requires_grad) {
      Matrix g = n->grad;
      g.Hadamard(pa->value);
      pb->AccumulateGrad(g);
    }
  });
}

Tensor Scale(const Tensor& x, float s) {
  Matrix out = x.value();
  out.Scale(s);
  return Tensor::FromOp(std::move(out), {x}, [s](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (!p->requires_grad) return;
    Matrix g = n->grad;
    g.Scale(s);
    p->AccumulateGrad(g);
  });
}

Tensor AddScalar(const Tensor& x, float c) {
  Matrix out = x.value();
  for (size_t i = 0; i < out.rows(); ++i) {
    for (size_t j = 0; j < out.cols(); ++j) out.at(i, j) += c;
  }
  return Tensor::FromOp(std::move(out), {x}, [](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (p->requires_grad) p->AccumulateGrad(n->grad);
  });
}

Tensor AddRowBroadcast(const Tensor& x, const Tensor& bias) {
  GARCIA_CHECK_EQ(bias.rows(), 1u);
  GARCIA_CHECK_EQ(bias.cols(), x.cols());
  Matrix out = x.value();
  for (size_t i = 0; i < out.rows(); ++i) {
    for (size_t j = 0; j < out.cols(); ++j) {
      out.at(i, j) += bias.value().at(0, j);
    }
  }
  return Tensor::FromOp(std::move(out), {x, bias}, [](TensorNode* n) {
    TensorNode* px = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    if (px->requires_grad) px->AccumulateGrad(n->grad);
    if (pb->requires_grad) {
      Matrix& g = pb->EnsureGrad();
      for (size_t i = 0; i < n->grad.rows(); ++i) {
        for (size_t j = 0; j < n->grad.cols(); ++j) {
          g.at(0, j) += n->grad.at(i, j);
        }
      }
    }
  });
}

Tensor MulColBroadcast(const Tensor& x, const Tensor& w) {
  GARCIA_CHECK_EQ(w.cols(), 1u);
  GARCIA_CHECK_EQ(w.rows(), x.rows());
  Matrix out = x.value();
  kernels::ScaleRowsInPlace(&out, w.value());
  return Tensor::FromOp(std::move(out), {x, w}, [](TensorNode* n) {
    TensorNode* px = Parent(n, 0);
    TensorNode* pw = Parent(n, 1);
    if (px->requires_grad) {
      Matrix g = n->grad;
      kernels::ScaleRowsInPlace(&g, pw->value);
      px->AccumulateGrad(g);
    }
    if (pw->requires_grad) {
      kernels::RowDotAdd(n->grad, px->value, &pw->EnsureGrad());
    }
  });
}

Tensor Average(const std::vector<Tensor>& xs) {
  GARCIA_CHECK(!xs.empty());
  Matrix out = xs[0].value();
  for (size_t i = 1; i < xs.size(); ++i) {
    GARCIA_CHECK_EQ(xs[i].rows(), out.rows());
    GARCIA_CHECK_EQ(xs[i].cols(), out.cols());
    out.Add(xs[i].value());
  }
  const float inv = 1.0f / static_cast<float>(xs.size());
  out.Scale(inv);
  return Tensor::FromOp(std::move(out), xs, [inv](TensorNode* n) {
    Matrix g = n->grad;
    g.Scale(inv);
    for (auto& p : n->parents) {
      if (p->requires_grad) p->AccumulateGrad(g);
    }
  });
}

Tensor ConcatCols(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.rows(), b.rows());
  const size_t da = a.cols(), db = b.cols();
  Matrix out(a.rows(), da + db);
  for (size_t i = 0; i < a.rows(); ++i) {
    std::copy(a.value().row(i), a.value().row(i) + da, out.row(i));
    std::copy(b.value().row(i), b.value().row(i) + db, out.row(i) + da);
  }
  return Tensor::FromOp(std::move(out), {a, b}, [da, db](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    if (pa->requires_grad) {
      Matrix& g = pa->EnsureGrad();
      for (size_t i = 0; i < g.rows(); ++i) {
        float* gi = g.row(i);
        const float* ni = n->grad.row(i);
        for (size_t j = 0; j < da; ++j) gi[j] += ni[j];
      }
    }
    if (pb->requires_grad) {
      Matrix& g = pb->EnsureGrad();
      for (size_t i = 0; i < g.rows(); ++i) {
        float* gi = g.row(i);
        const float* ni = n->grad.row(i) + da;
        for (size_t j = 0; j < db; ++j) gi[j] += ni[j];
      }
    }
  });
}

Tensor ConcatRows(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  const size_t ra = a.rows(), rb = b.rows();
  Matrix out(ra + rb, a.cols());
  for (size_t i = 0; i < ra; ++i) out.CopyRowFrom(a.value(), i, i);
  for (size_t i = 0; i < rb; ++i) out.CopyRowFrom(b.value(), i, ra + i);
  return Tensor::FromOp(std::move(out), {a, b}, [ra, rb](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    const size_t cols = n->grad.cols();
    if (pa->requires_grad) {
      Matrix& g = pa->EnsureGrad();
      for (size_t i = 0; i < ra; ++i) {
        float* gi = g.row(i);
        const float* ni = n->grad.row(i);
        for (size_t j = 0; j < cols; ++j) gi[j] += ni[j];
      }
    }
    if (pb->requires_grad) {
      Matrix& g = pb->EnsureGrad();
      for (size_t i = 0; i < rb; ++i) {
        float* gi = g.row(i);
        const float* ni = n->grad.row(ra + i);
        for (size_t j = 0; j < cols; ++j) gi[j] += ni[j];
      }
    }
  });
}

Tensor GatherRows(const Tensor& x, std::vector<uint32_t> indices) {
  Matrix out(indices.size(), x.cols());
  kernels::GatherRows(x.value(), indices, &out);
  return Tensor::FromOp(std::move(out), {x},
                        [idx = std::move(indices)](TensorNode* n) {
                          TensorNode* p = Parent(n, 0);
                          if (!p->requires_grad) return;
                          // Scatter-add adjoint: repeated indices accumulate
                          // in ascending source order.
                          kernels::ScatterAddRows(n->grad, idx,
                                                  &p->EnsureGrad());
                        });
}

namespace {

/// Shared body of the four activations: forward and backward both run the
/// elementwise kernels of core/kernels.h.
Tensor UnaryEltwise(const Tensor& x, kernels::UnaryOp op, float slope) {
  Matrix out(x.rows(), x.cols());
  kernels::UnaryForward(op, slope, x.value().data(), out.data(), out.size());
  return Tensor::FromOp(std::move(out), {x}, [op, slope](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (!p->requires_grad) return;
    Matrix& g = p->EnsureGrad();
    kernels::UnaryBackwardAdd(op, slope, p->value.data(), n->value.data(),
                              n->grad.data(), g.data(), g.size());
  });
}

}  // namespace

Tensor Tanh(const Tensor& x) {
  return UnaryEltwise(x, kernels::UnaryOp::kTanh, 0.0f);
}

Tensor Relu(const Tensor& x) {
  return UnaryEltwise(x, kernels::UnaryOp::kRelu, 0.0f);
}

Tensor LeakyRelu(const Tensor& x, float slope) {
  return UnaryEltwise(x, kernels::UnaryOp::kLeakyRelu, slope);
}

Tensor Sigmoid(const Tensor& x) {
  return UnaryEltwise(x, kernels::UnaryOp::kSigmoid, 0.0f);
}

Tensor L2NormalizeRows(const Tensor& x, float eps) {
  Matrix out(x.rows(), x.cols());
  std::vector<float> norms;
  kernels::L2NormalizeRows(x.value(), eps, &out, &norms);
  return Tensor::FromOp(std::move(out), {x},
                        [norms = std::move(norms), eps](TensorNode* n) {
                          TensorNode* p = Parent(n, 0);
                          if (!p->requires_grad) return;
                          kernels::L2NormalizeRowsBackwardAdd(
                              n->value, n->grad, norms, eps, &p->EnsureGrad());
                        });
}

Tensor SoftmaxRows(const Tensor& x) {
  Matrix out = x.value();
  kernels::SoftmaxRows(&out);
  return Tensor::FromOp(std::move(out), {x}, [](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (!p->requires_grad) return;
    kernels::SoftmaxRowsBackwardAdd(n->value, n->grad, &p->EnsureGrad());
  });
}

Tensor SumAll(const Tensor& x) {
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(x.value().Sum());
  return Tensor::FromOp(std::move(out), {x}, [](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (!p->requires_grad) return;
    Matrix g(p->value.rows(), p->value.cols(), n->grad.at(0, 0));
    p->AccumulateGrad(g);
  });
}

Tensor MeanAll(const Tensor& x) {
  GARCIA_CHECK_GT(x.value().size(), 0u);
  const float inv = 1.0f / static_cast<float>(x.value().size());
  Matrix out(1, 1);
  out.at(0, 0) = static_cast<float>(x.value().Sum()) * inv;
  return Tensor::FromOp(std::move(out), {x}, [inv](TensorNode* n) {
    TensorNode* p = Parent(n, 0);
    if (!p->requires_grad) return;
    Matrix g(p->value.rows(), p->value.cols(), n->grad.at(0, 0) * inv);
    p->AccumulateGrad(g);
  });
}

Tensor RowDot(const Tensor& a, const Tensor& b) {
  GARCIA_CHECK_EQ(a.rows(), b.rows());
  GARCIA_CHECK_EQ(a.cols(), b.cols());
  Matrix out(a.rows(), 1);
  for (size_t i = 0; i < a.rows(); ++i) {
    double s = 0.0;
    const float* ra = a.value().row(i);
    const float* rb = b.value().row(i);
    for (size_t j = 0; j < a.cols(); ++j) s += static_cast<double>(ra[j]) * rb[j];
    out.at(i, 0) = static_cast<float>(s);
  }
  return Tensor::FromOp(std::move(out), {a, b}, [](TensorNode* n) {
    TensorNode* pa = Parent(n, 0);
    TensorNode* pb = Parent(n, 1);
    const size_t d = pa->value.cols();
    if (pa->requires_grad) {
      Matrix& g = pa->EnsureGrad();
      for (size_t i = 0; i < n->grad.rows(); ++i) {
        const float gi = n->grad.at(i, 0);
        const float* rb = pb->value.row(i);
        float* gr = g.row(i);
        for (size_t j = 0; j < d; ++j) gr[j] += gi * rb[j];
      }
    }
    if (pb->requires_grad) {
      Matrix& g = pb->EnsureGrad();
      for (size_t i = 0; i < n->grad.rows(); ++i) {
        const float gi = n->grad.at(i, 0);
        const float* ra = pa->value.row(i);
        float* gr = g.row(i);
        for (size_t j = 0; j < d; ++j) gr[j] += gi * ra[j];
      }
    }
  });
}

Tensor Dropout(const Tensor& x, float p, core::Rng* rng) {
  GARCIA_CHECK_GE(p, 0.0f);
  GARCIA_CHECK_LT(p, 1.0f);
  if (p == 0.0f) return Scale(x, 1.0f);
  const float inv_keep = 1.0f / (1.0f - p);
  Matrix mask(x.rows(), x.cols());
  for (size_t i = 0; i < mask.rows(); ++i) {
    for (size_t j = 0; j < mask.cols(); ++j) {
      mask.at(i, j) = rng->Bernoulli(1.0 - p) ? inv_keep : 0.0f;
    }
  }
  Matrix out = x.value();
  out.Hadamard(mask);
  return Tensor::FromOp(std::move(out), {x},
                        [mask = std::move(mask)](TensorNode* n) {
                          TensorNode* p0 = Parent(n, 0);
                          if (!p0->requires_grad) return;
                          Matrix g = n->grad;
                          g.Hadamard(mask);
                          p0->AccumulateGrad(g);
                        });
}

Tensor SegmentSum(const Tensor& x, std::vector<uint32_t> seg,
                  size_t num_segments) {
  GARCIA_CHECK_EQ(seg.size(), x.rows());
  Matrix out(num_segments, x.cols());
  kernels::SegmentSum(x.value(), seg, num_segments, &out);
  return Tensor::FromOp(std::move(out), {x},
                        [seg = std::move(seg)](TensorNode* n) {
                          TensorNode* p = Parent(n, 0);
                          if (!p->requires_grad) return;
                          // Adjoint of segment-sum is a row gather: row e of
                          // dx reads row seg[e] of the upstream gradient.
                          kernels::GatherAddRows(n->grad, seg,
                                                 &p->EnsureGrad());
                        });
}

Tensor SegmentSoftmax(const Tensor& scores, std::vector<uint32_t> seg,
                      size_t num_segments) {
  GARCIA_CHECK_EQ(scores.cols(), 1u);
  GARCIA_CHECK_EQ(seg.size(), scores.rows());
  Matrix out(seg.size(), 1);
  kernels::SegmentSoftmax(scores.value(), seg, num_segments, &out);
  const size_t ns = num_segments;
  return Tensor::FromOp(std::move(out), {scores},
                        [seg = std::move(seg), ns](TensorNode* n) {
                          TensorNode* p = Parent(n, 0);
                          if (!p->requires_grad) return;
                          // dscore_e = α_e (dα_e − Σ_{e' in same segment}
                          // dα_{e'} α_{e'})
                          kernels::SegmentSoftmaxBackwardAdd(
                              n->value, n->grad, seg, ns, &p->EnsureGrad());
                        });
}

}  // namespace garcia::nn
