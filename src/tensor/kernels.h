#ifndef VGOD_TENSOR_KERNELS_H_
#define VGOD_TENSOR_KERNELS_H_

#include <vector>

#include "tensor/tensor.h"

namespace vgod::kernels {

// Raw (non-autograd) math kernels. Each function allocates and returns a
// fresh output tensor unless it is the *InPlace variant. The autograd layer
// (tensor/functional.h) wraps these with backward closures.

/// C = A * B. Requires A.cols() == B.rows().
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A * B^T. Requires A.cols() == B.cols().
Tensor MatMulNT(const Tensor& a, const Tensor& b);

/// C = A^T * B. Requires A.rows() == B.rows().
Tensor MatMulTN(const Tensor& a, const Tensor& b);

/// Rows `rows` of `a` copied into a rows.size() x a.cols() block.
Tensor GatherRows(const Tensor& a, const std::vector<int>& rows);

/// Writes row k of `block` over row rows[k] of `dst` (inverse of
/// GatherRows for distinct rows).
void ScatterRows(const Tensor& block, const std::vector<int>& rows,
                 Tensor* dst);

/// Transposed copy of `a`.
Tensor Transpose(const Tensor& a);

Tensor Add(const Tensor& a, const Tensor& b);
Tensor Sub(const Tensor& a, const Tensor& b);
Tensor Mul(const Tensor& a, const Tensor& b);
Tensor Scale(const Tensor& a, float s);

/// out[i][j] = a[i][j] + row[0][j]. `row` must be 1 x a.cols().
Tensor AddRowVector(const Tensor& a, const Tensor& row);

/// dst += src (same shape).
void AddInPlace(Tensor* dst, const Tensor& src);

/// dst += s * src (same shape).
void AxpyInPlace(Tensor* dst, float s, const Tensor& src);

/// dst *= s.
void ScaleInPlace(Tensor* dst, float s);

Tensor Relu(const Tensor& a);
Tensor LeakyRelu(const Tensor& a, float negative_slope);
Tensor Sigmoid(const Tensor& a);
Tensor Tanh(const Tensor& a);
Tensor Exp(const Tensor& a);
Tensor Square(const Tensor& a);
Tensor Abs(const Tensor& a);

/// 1 x 1 tensor with the sum of all entries (accumulated in double).
Tensor SumAll(const Tensor& a);

/// n x 1 tensor of row sums.
Tensor RowSums(const Tensor& a);

/// 1 x c tensor of column sums.
Tensor ColSums(const Tensor& a);

/// n x 1 tensor of row L2 norms.
Tensor RowNorms(const Tensor& a);

/// Each row divided by max(||row||_2, eps). The default eps is
/// ag::RowL2Normalize's.
Tensor RowL2Normalize(const Tensor& a, float eps = 1e-12f);

/// n x 1 tensor: out[i] = ||a_i - b_i||_2^2 (squared row differences).
Tensor RowSquaredDistance(const Tensor& a, const Tensor& b);

/// Mean of all entries as a double.
double MeanValue(const Tensor& a);

/// Population standard deviation of all entries as a double.
double StdValue(const Tensor& a);

/// Max absolute entry difference between same-shaped tensors.
float MaxAbsDiff(const Tensor& a, const Tensor& b);

}  // namespace vgod::kernels

#endif  // VGOD_TENSOR_KERNELS_H_
