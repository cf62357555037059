#include "tensor/functional.h"

#include <cmath>
#include <utility>

#include "tensor/kernels.h"

namespace vgod::ag {

namespace k = ::vgod::kernels;
using ::vgod::internal::AutogradNode;

Variable MatMul(const Variable& a, const Variable& b) {
  Tensor out = k::MatMul(a.value(), b.value());
  Tensor av = a.value();
  Tensor bv = b.value();
  return Variable::FromOp(
      std::move(out), {a, b},
      [av, bv](AutogradNode& self) {
        if (self.inputs[0]->requires_grad) {
          self.inputs[0]->AccumulateGrad(k::MatMulNT(self.grad, bv));
        }
        if (self.inputs[1]->requires_grad) {
          self.inputs[1]->AccumulateGrad(k::MatMulTN(av, self.grad));
        }
      },
      "MatMul");
}

Variable MatMulNT(const Variable& a, const Variable& b) {
  Tensor out = k::MatMulNT(a.value(), b.value());
  Tensor av = a.value();
  Tensor bv = b.value();
  return Variable::FromOp(
      std::move(out), {a, b},
      [av, bv](AutogradNode& self) {
        // C = A B^T: dA = G B, dB = G^T A.
        if (self.inputs[0]->requires_grad) {
          self.inputs[0]->AccumulateGrad(k::MatMul(self.grad, bv));
        }
        if (self.inputs[1]->requires_grad) {
          self.inputs[1]->AccumulateGrad(k::MatMulTN(self.grad, av));
        }
      },
      "MatMulNT");
}

Variable Add(const Variable& a, const Variable& b) {
  return Variable::FromOp(
      k::Add(a.value(), b.value()), {a, b},
      [](AutogradNode& self) {
        self.inputs[0]->AccumulateGrad(self.grad);
        self.inputs[1]->AccumulateGrad(self.grad);
      },
      "Add");
}

Variable Sub(const Variable& a, const Variable& b) {
  return Variable::FromOp(
      k::Sub(a.value(), b.value()), {a, b},
      [](AutogradNode& self) {
        self.inputs[0]->AccumulateGrad(self.grad);
        if (self.inputs[1]->requires_grad) {
          self.inputs[1]->AccumulateGrad(k::Scale(self.grad, -1.0f));
        }
      },
      "Sub");
}

Variable Mul(const Variable& a, const Variable& b) {
  Tensor av = a.value();
  Tensor bv = b.value();
  return Variable::FromOp(
      k::Mul(av, bv), {a, b},
      [av, bv](AutogradNode& self) {
        if (self.inputs[0]->requires_grad) {
          self.inputs[0]->AccumulateGrad(k::Mul(self.grad, bv));
        }
        if (self.inputs[1]->requires_grad) {
          self.inputs[1]->AccumulateGrad(k::Mul(self.grad, av));
        }
      },
      "Mul");
}

Variable Scale(const Variable& a, float s) {
  return Variable::FromOp(
      k::Scale(a.value(), s), {a},
      [s](AutogradNode& self) {
        self.inputs[0]->AccumulateGrad(k::Scale(self.grad, s));
      },
      "Scale");
}

Variable AddRowVector(const Variable& x, const Variable& bias) {
  return Variable::FromOp(
      k::AddRowVector(x.value(), bias.value()), {x, bias},
      [](AutogradNode& self) {
        self.inputs[0]->AccumulateGrad(self.grad);
        if (self.inputs[1]->requires_grad) {
          self.inputs[1]->AccumulateGrad(k::ColSums(self.grad));
        }
      },
      "AddRowVector");
}

Variable MulRowsByColVector(const Variable& x, const Variable& w) {
  VGOD_CHECK_EQ(w.cols(), 1);
  VGOD_CHECK_EQ(w.rows(), x.rows());
  const Tensor& xv = x.value();
  const Tensor& wv = w.value();
  Tensor out(xv.rows(), xv.cols());
  for (int i = 0; i < xv.rows(); ++i) {
    const float wi = wv.At(i, 0);
    const size_t base = static_cast<size_t>(i) * xv.cols();
    for (int j = 0; j < xv.cols(); ++j) {
      out.data()[base + j] = xv.data()[base + j] * wi;
    }
  }
  Tensor xc = xv;
  Tensor wc = wv;
  return Variable::FromOp(
      std::move(out), {x, w},
      [xc, wc](AutogradNode& self) {
        const Tensor& g = self.grad;
        if (self.inputs[0]->requires_grad) {
          Tensor gx(xc.rows(), xc.cols());
          for (int i = 0; i < xc.rows(); ++i) {
            const float wi = wc.At(i, 0);
            const size_t base = static_cast<size_t>(i) * xc.cols();
            for (int j = 0; j < xc.cols(); ++j) {
              gx.data()[base + j] = g.data()[base + j] * wi;
            }
          }
          self.inputs[0]->AccumulateGrad(gx);
        }
        if (self.inputs[1]->requires_grad) {
          self.inputs[1]->AccumulateGrad(k::RowSums(k::Mul(g, xc)));
        }
      },
      "MulRowsByColVector");
}

Variable Sqrt(const Variable& x, float eps) {
  const Tensor& xv = x.value();
  Tensor y(xv.rows(), xv.cols());
  for (int64_t i = 0; i < xv.size(); ++i) {
    y.data()[i] = std::sqrt(std::max(0.0f, xv.data()[i]) + eps);
  }
  return Variable::FromOp(
      y, {x},
      [y](AutogradNode& self) {
        Tensor gx(y.rows(), y.cols());
        for (int64_t i = 0; i < y.size(); ++i) {
          gx.data()[i] = self.grad.data()[i] * 0.5f / y.data()[i];
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "Sqrt");
}

Variable Relu(const Variable& x) {
  Tensor xv = x.value();
  return Variable::FromOp(
      k::Relu(xv), {x},
      [xv](AutogradNode& self) {
        Tensor gx(xv.rows(), xv.cols());
        const int64_t n = xv.size();
        for (int64_t i = 0; i < n; ++i) {
          gx.data()[i] = xv.data()[i] > 0.0f ? self.grad.data()[i] : 0.0f;
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "Relu");
}

Variable LeakyRelu(const Variable& x, float negative_slope) {
  Tensor xv = x.value();
  return Variable::FromOp(
      k::LeakyRelu(xv, negative_slope), {x},
      [xv, negative_slope](AutogradNode& self) {
        Tensor gx(xv.rows(), xv.cols());
        const int64_t n = xv.size();
        for (int64_t i = 0; i < n; ++i) {
          const float slope = xv.data()[i] > 0.0f ? 1.0f : negative_slope;
          gx.data()[i] = slope * self.grad.data()[i];
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "LeakyRelu");
}

Variable Sigmoid(const Variable& x) {
  Tensor y = k::Sigmoid(x.value());
  return Variable::FromOp(
      y, {x},
      [y](AutogradNode& self) {
        Tensor gx(y.rows(), y.cols());
        const int64_t n = y.size();
        for (int64_t i = 0; i < n; ++i) {
          const float s = y.data()[i];
          gx.data()[i] = self.grad.data()[i] * s * (1.0f - s);
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "Sigmoid");
}

Variable Tanh(const Variable& x) {
  Tensor y = k::Tanh(x.value());
  return Variable::FromOp(
      y, {x},
      [y](AutogradNode& self) {
        Tensor gx(y.rows(), y.cols());
        const int64_t n = y.size();
        for (int64_t i = 0; i < n; ++i) {
          const float t = y.data()[i];
          gx.data()[i] = self.grad.data()[i] * (1.0f - t * t);
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "Tanh");
}

Variable Square(const Variable& x) {
  Tensor xv = x.value();
  return Variable::FromOp(
      k::Square(xv), {x},
      [xv](AutogradNode& self) {
        Tensor gx(xv.rows(), xv.cols());
        const int64_t n = xv.size();
        for (int64_t i = 0; i < n; ++i) {
          gx.data()[i] = 2.0f * xv.data()[i] * self.grad.data()[i];
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "Square");
}

Variable RowL2Normalize(const Variable& x, float eps) {
  Tensor xv = x.value();
  Tensor norms = k::RowNorms(xv);
  Tensor y = k::RowL2Normalize(xv, eps);
  return Variable::FromOp(
      y, {x},
      [y, norms, eps](AutogradNode& self) {
        // y = x / n where n = max(||x||, eps). For n > eps:
        // dL/dx = (g - y (y . g)) / n; otherwise the map is linear: g / eps.
        const Tensor& g = self.grad;
        Tensor gx(y.rows(), y.cols());
        for (int i = 0; i < y.rows(); ++i) {
          const float norm = norms.At(i, 0);
          const size_t base = static_cast<size_t>(i) * y.cols();
          if (norm <= eps) {
            for (int j = 0; j < y.cols(); ++j) {
              gx.data()[base + j] = g.data()[base + j] / eps;
            }
            continue;
          }
          double dot = 0.0;
          for (int j = 0; j < y.cols(); ++j) {
            dot += static_cast<double>(y.data()[base + j]) * g.data()[base + j];
          }
          for (int j = 0; j < y.cols(); ++j) {
            gx.data()[base + j] = static_cast<float>(
                (g.data()[base + j] - y.data()[base + j] * dot) / norm);
          }
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "RowL2Normalize");
}

Variable SumAll(const Variable& x) {
  const int rows = x.rows(), cols = x.cols();
  return Variable::FromOp(
      k::SumAll(x.value()), {x},
      [rows, cols](AutogradNode& self) {
        const float g = self.grad.ScalarValue();
        self.inputs[0]->AccumulateGrad(Tensor::Full(rows, cols, g));
      },
      "SumAll");
}

Variable MeanAll(const Variable& x) {
  const int rows = x.rows(), cols = x.cols();
  const float inv = 1.0f / static_cast<float>(x.value().size());
  Tensor out = k::SumAll(x.value());
  out.SetAt(0, 0, out.ScalarValue() * inv);
  return Variable::FromOp(
      std::move(out), {x},
      [rows, cols, inv](AutogradNode& self) {
        const float g = self.grad.ScalarValue() * inv;
        self.inputs[0]->AccumulateGrad(Tensor::Full(rows, cols, g));
      },
      "MeanAll");
}

Variable RowSums(const Variable& x) {
  const int rows = x.rows(), cols = x.cols();
  return Variable::FromOp(
      k::RowSums(x.value()), {x},
      [rows, cols](AutogradNode& self) {
        Tensor gx(rows, cols);
        for (int i = 0; i < rows; ++i) {
          const float g = self.grad.At(i, 0);
          const size_t base = static_cast<size_t>(i) * cols;
          for (int j = 0; j < cols; ++j) gx.data()[base + j] = g;
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "RowSums");
}

Variable RowSquaredDistance(const Variable& a, const Variable& b) {
  Tensor av = a.value();
  Tensor bv = b.value();
  return Variable::FromOp(
      k::RowSquaredDistance(av, bv), {a, b},
      [av, bv](AutogradNode& self) {
        // out_i = sum_j (a_ij - b_ij)^2 -> d/da_ij = 2 (a_ij - b_ij) g_i.
        const Tensor& g = self.grad;
        const bool need_a = self.inputs[0]->requires_grad;
        const bool need_b = self.inputs[1]->requires_grad;
        Tensor ga = need_a ? Tensor(av.rows(), av.cols()) : Tensor();
        Tensor gb = need_b ? Tensor(av.rows(), av.cols()) : Tensor();
        for (int i = 0; i < av.rows(); ++i) {
          const float gi = g.At(i, 0);
          const size_t base = static_cast<size_t>(i) * av.cols();
          for (int j = 0; j < av.cols(); ++j) {
            const float d =
                2.0f * (av.data()[base + j] - bv.data()[base + j]) * gi;
            if (need_a) ga.data()[base + j] = d;
            if (need_b) gb.data()[base + j] = -d;
          }
        }
        if (need_a) self.inputs[0]->AccumulateGrad(ga);
        if (need_b) self.inputs[1]->AccumulateGrad(gb);
      },
      "RowSquaredDistance");
}

Variable MseLoss(const Variable& pred, const Variable& target) {
  return MeanAll(Square(Sub(pred, target)));
}

Variable GatherRows(const Variable& x, std::vector<int> indices) {
  Tensor out = k::GatherRows(x.value(), indices);
  const int cols = x.cols();
  const int src_rows = x.rows();
  return Variable::FromOp(
      std::move(out), {x},
      [indices = std::move(indices), src_rows, cols](AutogradNode& self) {
        Tensor gx = Tensor::Zeros(src_rows, cols);
        for (size_t i = 0; i < indices.size(); ++i) {
          const float* g = self.grad.data() + i * cols;
          float* dst = gx.data() + static_cast<size_t>(indices[i]) * cols;
          for (int j = 0; j < cols; ++j) dst[j] += g[j];
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "GatherRows");
}

Variable ConcatCols(const std::vector<Variable>& parts) {
  VGOD_CHECK(!parts.empty());
  const int rows = parts[0].rows();
  int total_cols = 0;
  std::vector<int> offsets;
  offsets.reserve(parts.size());
  for (const Variable& part : parts) {
    VGOD_CHECK_EQ(part.rows(), rows);
    offsets.push_back(total_cols);
    total_cols += part.cols();
  }
  Tensor out(rows, total_cols);
  for (size_t p = 0; p < parts.size(); ++p) {
    const Tensor& pv = parts[p].value();
    for (int i = 0; i < rows; ++i) {
      const float* src = pv.data() + static_cast<size_t>(i) * pv.cols();
      float* dst =
          out.data() + static_cast<size_t>(i) * total_cols + offsets[p];
      std::copy(src, src + pv.cols(), dst);
    }
  }
  std::vector<int> widths;
  widths.reserve(parts.size());
  for (const Variable& part : parts) widths.push_back(part.cols());
  return Variable::FromOp(
      std::move(out), parts,
      [offsets, widths, rows, total_cols](AutogradNode& self) {
        for (size_t p = 0; p < self.inputs.size(); ++p) {
          if (!self.inputs[p]->requires_grad) continue;
          Tensor gp(rows, widths[p]);
          for (int i = 0; i < rows; ++i) {
            const float* src = self.grad.data() +
                               static_cast<size_t>(i) * total_cols +
                               offsets[p];
            float* dst = gp.data() + static_cast<size_t>(i) * widths[p];
            std::copy(src, src + widths[p], dst);
          }
          self.inputs[p]->AccumulateGrad(gp);
        }
      },
      "ConcatCols");
}

Variable SegmentMeanRows(const Variable& x, std::vector<int> offsets) {
  VGOD_CHECK_GE(offsets.size(), 2u);
  VGOD_CHECK_EQ(offsets.front(), 0);
  VGOD_CHECK_EQ(offsets.back(), x.rows());
  const int groups = static_cast<int>(offsets.size()) - 1;
  const int cols = x.cols();
  const Tensor& xv = x.value();
  Tensor out = Tensor::Zeros(groups, cols);
  for (int g = 0; g < groups; ++g) {
    const int begin = offsets[g], end = offsets[g + 1];
    VGOD_CHECK_LE(begin, end);
    if (begin == end) continue;
    float* orow = out.data() + static_cast<size_t>(g) * cols;
    for (int r = begin; r < end; ++r) {
      const float* xrow = xv.data() + static_cast<size_t>(r) * cols;
      for (int c = 0; c < cols; ++c) orow[c] += xrow[c];
    }
    const float inv = 1.0f / static_cast<float>(end - begin);
    for (int c = 0; c < cols; ++c) orow[c] *= inv;
  }
  const int rows = x.rows();
  return Variable::FromOp(
      std::move(out), {x},
      [offsets = std::move(offsets), rows, cols](AutogradNode& self) {
        Tensor gx = Tensor::Zeros(rows, cols);
        const int num_groups = static_cast<int>(offsets.size()) - 1;
        for (int g = 0; g < num_groups; ++g) {
          const int begin = offsets[g], end = offsets[g + 1];
          if (begin == end) continue;
          const float inv = 1.0f / static_cast<float>(end - begin);
          const float* grow = self.grad.data() + static_cast<size_t>(g) * cols;
          for (int r = begin; r < end; ++r) {
            float* xrow = gx.data() + static_cast<size_t>(r) * cols;
            for (int c = 0; c < cols; ++c) xrow[c] += inv * grow[c];
          }
        }
        self.inputs[0]->AccumulateGrad(gx);
      },
      "SegmentMeanRows");
}

Variable BceWithLogits(const Variable& logits, const Tensor& targets) {
  const Tensor& z = logits.value();
  VGOD_CHECK(z.SameShape(targets));
  // Stable form: max(z, 0) - z*y + log(1 + exp(-|z|)).
  double total = 0.0;
  for (int64_t i = 0; i < z.size(); ++i) {
    const double zi = z.data()[i];
    const double yi = targets.data()[i];
    total += std::max(zi, 0.0) - zi * yi + std::log1p(std::exp(-std::fabs(zi)));
  }
  const float inv = 1.0f / static_cast<float>(z.size());
  Tensor out = Tensor::Scalar(static_cast<float>(total) * inv);
  Tensor zc = z;
  Tensor yc = targets;
  return Variable::FromOp(
      std::move(out), {logits},
      [zc, yc, inv](AutogradNode& self) {
        const float g = self.grad.ScalarValue() * inv;
        Tensor gz(zc.rows(), zc.cols());
        const Tensor sig = k::Sigmoid(zc);
        for (int64_t i = 0; i < zc.size(); ++i) {
          gz.data()[i] = g * (sig.data()[i] - yc.data()[i]);
        }
        self.inputs[0]->AccumulateGrad(gz);
      },
      "BceWithLogits");
}

}  // namespace vgod::ag
