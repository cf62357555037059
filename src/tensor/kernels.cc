#include "tensor/kernels.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "core/parallel.h"
#include "obs/metrics.h"
#include "obs/profile.h"

namespace vgod::kernels {
namespace {

// Parallelization here is row-parallel (or flat-index-parallel for
// elementwise ops): every output element is produced by exactly one
// ParallelFor chunk running the same serial inner loop as the
// single-threaded kernel, so outputs are bit-identical across thread
// counts (docs/PARALLELISM.md). Scalar reductions (SumAll & friends) stay
// serial: splitting their single double accumulator would change the
// float summation order.

/// Minimum flat elements per elementwise chunk — below this the dispatch
/// overhead beats the memory-bound loop.
constexpr int64_t kElementGrain = 1 << 14;

/// Row grain so one chunk covers at least ~kElementGrain scalar ops for a
/// per-row cost of `row_work`. Pure function of the shape, so the chunk
/// decomposition never depends on runtime load.
int64_t RowGrain(int64_t row_work) {
  return std::max<int64_t>(1, kElementGrain / std::max<int64_t>(1, row_work));
}

/// Op-level accounting for the dense matmul family (the library's hot
/// kernels): flop/byte estimates shared across the three variants; each
/// variant also bumps its own call counter at the call site. A few
/// relaxed atomic adds per *call* (not per element), so the overhead is
/// unmeasurable next to the O(mnk) loop itself.
void CountMatMulWork(int64_t m, int64_t n, int64_t k) {
  VGOD_COUNTER_ADD("tensor.matmul.flops", 2 * m * n * k);
  const int64_t bytes =
      (m * k + k * n + m * n) * static_cast<int64_t>(sizeof(float));
  VGOD_COUNTER_ADD("tensor.matmul.bytes", bytes);
  obs::ProfileAddBytes(bytes);
}

// Applies `fn` elementwise into a fresh tensor. `scope` is the profiler
// region name and must be a string literal.
template <typename Fn>
Tensor ElementwiseUnary(const char* scope, const Tensor& a, Fn fn) {
  VGOD_SCOPE(scope);
  obs::ProfileAddBytes(2 * a.size() * static_cast<int64_t>(sizeof(float)));
  Tensor out(a.rows(), a.cols());
  const float* in = a.data();
  float* dst = out.data();
  par::ParallelFor(0, a.size(), kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) dst[i] = fn(in[i]);
                   });
  return out;
}

template <typename Fn>
Tensor ElementwiseBinary(const char* scope, const Tensor& a, const Tensor& b,
                         Fn fn) {
  VGOD_CHECK(a.SameShape(b)) << a.ShapeString() << " vs " << b.ShapeString();
  VGOD_SCOPE(scope);
  obs::ProfileAddBytes(3 * a.size() * static_cast<int64_t>(sizeof(float)));
  Tensor out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  par::ParallelFor(0, a.size(), kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) {
                       dst[i] = fn(pa[i], pb[i]);
                     }
                   });
  return out;
}

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  VGOD_CHECK_EQ(a.cols(), b.rows());
  const int m = a.rows(), k = a.cols(), n = b.cols();
  VGOD_SCOPE("kernel/matmul");
  VGOD_COUNTER_INC("tensor.matmul.calls");
  CountMatMulWork(m, n, k);
  Tensor out = Tensor::Zeros(m, n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // i-k-j loop order: the inner j loop is a contiguous saxpy that the
  // compiler auto-vectorizes; this is the hot kernel of the whole library.
  // Row-parallel: each output row is one serial i-iteration, so the split
  // never changes the summation order.
  par::ParallelFor(
      0, m, RowGrain(static_cast<int64_t>(k) * n),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float* arow = pa + static_cast<size_t>(i) * k;
          float* crow = pc + static_cast<size_t>(i) * n;
          for (int kk = 0; kk < k; ++kk) {
            const float aval = arow[kk];
            if (aval == 0.0f) continue;  // Attributes are often sparse.
            const float* brow = pb + static_cast<size_t>(kk) * n;
            for (int j = 0; j < n; ++j) crow[j] += aval * brow[j];
          }
        }
      });
  return out;
}

Tensor MatMulNT(const Tensor& a, const Tensor& b) {
  VGOD_CHECK_EQ(a.cols(), b.cols());
  const int m = a.rows(), k = a.cols(), n = b.rows();
  VGOD_SCOPE("kernel/matmul_nt");
  VGOD_COUNTER_INC("tensor.matmul_nt.calls");
  CountMatMulWork(m, n, k);
  Tensor out(m, n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  par::ParallelFor(
      0, m, RowGrain(static_cast<int64_t>(k) * n),
      [&](int64_t lo, int64_t hi) {
        for (int64_t i = lo; i < hi; ++i) {
          const float* arow = pa + static_cast<size_t>(i) * k;
          float* crow = pc + static_cast<size_t>(i) * n;
          for (int j = 0; j < n; ++j) {
            const float* brow = pb + static_cast<size_t>(j) * k;
            double acc = 0.0;
            for (int kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
            crow[j] = static_cast<float>(acc);
          }
        }
      });
  return out;
}

Tensor MatMulTN(const Tensor& a, const Tensor& b) {
  VGOD_CHECK_EQ(a.rows(), b.rows());
  const int m = a.cols(), k = a.rows(), n = b.cols();
  VGOD_SCOPE("kernel/matmul_tn");
  VGOD_COUNTER_INC("tensor.matmul_tn.calls");
  CountMatMulWork(m, n, k);
  Tensor out = Tensor::Zeros(m, n);
  const float* pa = a.data();
  const float* pb = b.data();
  float* pc = out.data();
  // Split over output rows (columns of A); kk stays the outer loop inside
  // each chunk, so each C[i][j] accumulates in ascending-kk order exactly
  // as the serial kernel does.
  par::ParallelFor(
      0, m, RowGrain(static_cast<int64_t>(k) * n),
      [&](int64_t lo, int64_t hi) {
        for (int kk = 0; kk < k; ++kk) {
          const float* arow = pa + static_cast<size_t>(kk) * m;
          const float* brow = pb + static_cast<size_t>(kk) * n;
          for (int64_t i = lo; i < hi; ++i) {
            const float aval = arow[i];
            if (aval == 0.0f) continue;
            float* crow = pc + static_cast<size_t>(i) * n;
            for (int j = 0; j < n; ++j) crow[j] += aval * brow[j];
          }
        }
      });
  return out;
}

Tensor GatherRows(const Tensor& a, const std::vector<int>& rows) {
  const int cols = a.cols();
  Tensor out(static_cast<int>(rows.size()), cols);
  for (size_t k = 0; k < rows.size(); ++k) {
    VGOD_CHECK(rows[k] >= 0 && rows[k] < a.rows());
    const float* src = a.data() + static_cast<size_t>(rows[k]) * cols;
    std::copy(src, src + cols, out.data() + k * cols);
  }
  return out;
}

void ScatterRows(const Tensor& block, const std::vector<int>& rows,
                 Tensor* dst) {
  const int cols = dst->cols();
  VGOD_CHECK(block.rows() == static_cast<int>(rows.size()) &&
             block.cols() == cols);
  for (size_t k = 0; k < rows.size(); ++k) {
    VGOD_CHECK(rows[k] >= 0 && rows[k] < dst->rows());
    const float* src = block.data() + k * cols;
    std::copy(src, src + cols,
              dst->data() + static_cast<size_t>(rows[k]) * cols);
  }
}

Tensor Transpose(const Tensor& a) {
  VGOD_SCOPE("kernel/transpose");
  obs::ProfileAddBytes(2 * a.size() * static_cast<int64_t>(sizeof(float)));
  Tensor out(a.cols(), a.rows());
  const float* src = a.data();
  float* dst = out.data();
  const int rows = a.rows(), cols = a.cols();
  par::ParallelFor(0, rows, RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      for (int j = 0; j < cols; ++j) {
        dst[static_cast<size_t>(j) * rows + i] =
            src[static_cast<size_t>(i) * cols + j];
      }
    }
  });
  return out;
}

Tensor Add(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary("kernel/add", a, b,
                           [](float x, float y) { return x + y; });
}

Tensor Sub(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary("kernel/sub", a, b,
                           [](float x, float y) { return x - y; });
}

Tensor Mul(const Tensor& a, const Tensor& b) {
  return ElementwiseBinary("kernel/mul", a, b,
                           [](float x, float y) { return x * y; });
}

Tensor Scale(const Tensor& a, float s) {
  return ElementwiseUnary("kernel/scale", a, [s](float x) { return x * s; });
}

Tensor AddRowVector(const Tensor& a, const Tensor& row) {
  VGOD_CHECK_EQ(row.rows(), 1);
  VGOD_CHECK_EQ(row.cols(), a.cols());
  VGOD_SCOPE("kernel/add_row_vector");
  Tensor out(a.rows(), a.cols());
  const float* pa = a.data();
  const float* pr = row.data();
  float* dst = out.data();
  const int cols = a.cols();
  par::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t base = static_cast<size_t>(i) * cols;
      for (int j = 0; j < cols; ++j) dst[base + j] = pa[base + j] + pr[j];
    }
  });
  return out;
}

void AddInPlace(Tensor* dst, const Tensor& src) {
  VGOD_CHECK(dst->SameShape(src));
  VGOD_SCOPE("kernel/add_inplace");
  float* pd = dst->data();
  const float* ps = src.data();
  par::ParallelFor(0, dst->size(), kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) pd[i] += ps[i];
                   });
}

void AxpyInPlace(Tensor* dst, float s, const Tensor& src) {
  VGOD_CHECK(dst->SameShape(src));
  VGOD_SCOPE("kernel/axpy_inplace");
  float* pd = dst->data();
  const float* ps = src.data();
  par::ParallelFor(0, dst->size(), kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) pd[i] += s * ps[i];
                   });
}

void ScaleInPlace(Tensor* dst, float s) {
  VGOD_SCOPE("kernel/scale_inplace");
  float* pd = dst->data();
  par::ParallelFor(0, dst->size(), kElementGrain,
                   [&](int64_t lo, int64_t hi) {
                     for (int64_t i = lo; i < hi; ++i) pd[i] *= s;
                   });
}

Tensor Relu(const Tensor& a) {
  return ElementwiseUnary("kernel/relu", a,
                          [](float x) { return x > 0.0f ? x : 0.0f; });
}

Tensor LeakyRelu(const Tensor& a, float negative_slope) {
  return ElementwiseUnary(
      "kernel/leaky_relu", a,
      [negative_slope](float x) { return x > 0.0f ? x : negative_slope * x; });
}

Tensor Sigmoid(const Tensor& a) {
  return ElementwiseUnary("kernel/sigmoid", a, [](float x) {
    // Numerically stable piecewise form.
    if (x >= 0.0f) {
      const float z = std::exp(-x);
      return 1.0f / (1.0f + z);
    }
    const float z = std::exp(x);
    return z / (1.0f + z);
  });
}

Tensor Tanh(const Tensor& a) {
  return ElementwiseUnary("kernel/tanh", a,
                          [](float x) { return std::tanh(x); });
}

Tensor Exp(const Tensor& a) {
  return ElementwiseUnary("kernel/exp", a,
                          [](float x) { return std::exp(x); });
}

Tensor Square(const Tensor& a) {
  return ElementwiseUnary("kernel/square", a,
                          [](float x) { return x * x; });
}

Tensor Abs(const Tensor& a) {
  return ElementwiseUnary("kernel/abs", a,
                          [](float x) { return std::fabs(x); });
}

Tensor SumAll(const Tensor& a) {
  VGOD_SCOPE("kernel/sum_all");
  double acc = 0.0;
  const float* p = a.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) acc += p[i];
  return Tensor::Scalar(static_cast<float>(acc));
}

Tensor RowSums(const Tensor& a) {
  VGOD_SCOPE("kernel/row_sums");
  Tensor out(a.rows(), 1);
  const float* p = a.data();
  float* dst = out.data();
  const int cols = a.cols();
  par::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      const size_t base = static_cast<size_t>(i) * cols;
      for (int j = 0; j < cols; ++j) acc += p[base + j];
      dst[i] = static_cast<float>(acc);
    }
  });
  return out;
}

Tensor ColSums(const Tensor& a) {
  VGOD_SCOPE("kernel/col_sums");
  Tensor out = Tensor::Zeros(1, a.cols());
  const float* p = a.data();
  float* dst = out.data();
  const int rows = a.rows(), cols = a.cols();
  // Column-parallel: each chunk owns a column range and scans every row,
  // so each dst[j] accumulates in ascending-row order like the serial loop.
  par::ParallelFor(0, cols, RowGrain(rows), [&](int64_t lo, int64_t hi) {
    for (int i = 0; i < rows; ++i) {
      const size_t base = static_cast<size_t>(i) * cols;
      for (int64_t j = lo; j < hi; ++j) dst[j] += p[base + j];
    }
  });
  return out;
}

Tensor RowNorms(const Tensor& a) {
  VGOD_SCOPE("kernel/row_norms");
  Tensor out(a.rows(), 1);
  const float* p = a.data();
  float* dst = out.data();
  const int cols = a.cols();
  par::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      double acc = 0.0;
      const size_t base = static_cast<size_t>(i) * cols;
      for (int j = 0; j < cols; ++j) {
        acc += static_cast<double>(p[base + j]) * p[base + j];
      }
      dst[i] = static_cast<float>(std::sqrt(acc));
    }
  });
  return out;
}

Tensor RowL2Normalize(const Tensor& a, float eps) {
  VGOD_SCOPE("kernel/row_l2_normalize");
  Tensor out(a.rows(), a.cols());
  const float* p = a.data();
  float* dst = out.data();
  const int cols = a.cols();
  par::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t base = static_cast<size_t>(i) * cols;
      double acc = 0.0;
      for (int j = 0; j < cols; ++j) {
        acc += static_cast<double>(p[base + j]) * p[base + j];
      }
      const float inv =
          1.0f / std::max(static_cast<float>(std::sqrt(acc)), eps);
      for (int j = 0; j < cols; ++j) dst[base + j] = p[base + j] * inv;
    }
  });
  return out;
}

Tensor RowSquaredDistance(const Tensor& a, const Tensor& b) {
  VGOD_CHECK(a.SameShape(b));
  VGOD_SCOPE("kernel/row_squared_distance");
  Tensor out(a.rows(), 1);
  const float* pa = a.data();
  const float* pb = b.data();
  float* dst = out.data();
  const int cols = a.cols();
  par::ParallelFor(0, a.rows(), RowGrain(cols), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const size_t base = static_cast<size_t>(i) * cols;
      double acc = 0.0;
      for (int j = 0; j < cols; ++j) {
        const double d = static_cast<double>(pa[base + j]) - pb[base + j];
        acc += d * d;
      }
      dst[i] = static_cast<float>(acc);
    }
  });
  return out;
}

double MeanValue(const Tensor& a) {
  VGOD_CHECK_GT(a.size(), 0);
  return SumAll(a).ScalarValue() / static_cast<double>(a.size());
}

double StdValue(const Tensor& a) {
  VGOD_SCOPE("kernel/std_value");
  const double mean = MeanValue(a);
  double acc = 0.0;
  const float* p = a.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    const double d = p[i] - mean;
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(n));
}

float MaxAbsDiff(const Tensor& a, const Tensor& b) {
  VGOD_CHECK(a.SameShape(b));
  VGOD_SCOPE("kernel/max_abs_diff");
  float max_diff = 0.0f;
  const float* pa = a.data();
  const float* pb = b.data();
  const int64_t n = a.size();
  for (int64_t i = 0; i < n; ++i) {
    max_diff = std::max(max_diff, std::fabs(pa[i] - pb[i]));
  }
  return max_diff;
}

}  // namespace vgod::kernels
