#ifndef VGOD_TENSOR_NN_H_
#define VGOD_TENSOR_NN_H_

#include <vector>

#include "core/rng.h"
#include "tensor/autograd.h"
#include "tensor/functional.h"

namespace vgod::nn {

/// Base for parameterized modules: exposes the trainable Variables so that
/// optimizers and parameter-counting utilities can see them uniformly.
class Module {
 public:
  virtual ~Module() = default;

  /// All trainable parameters of this module (including submodules).
  virtual std::vector<Variable> Parameters() const = 0;

  /// Total number of trainable scalars.
  int64_t NumParameters() const;
};

/// Affine layer: y = x W + b, with W: in x out Xavier-initialized and b
/// zero-initialized. `use_bias=false` drops b (e.g. before L2 row
/// normalization where a bias would be redundant).
class Linear : public Module {
 public:
  Linear(int in_features, int out_features, Rng* rng, bool use_bias = true);

  Variable Forward(const Variable& x) const;

  /// Forward on a plain tensor, off the autograd tape: the same kernels,
  /// so the same bits. Row-local: row i of the output reads only row i of
  /// `x`, so scoring a gathered row block reproduces those rows exactly.
  Tensor Apply(const Tensor& x) const;

  std::vector<Variable> Parameters() const override;

  const Variable& weight() const { return weight_; }
  const Variable& bias() const { return bias_; }
  int in_features() const { return in_features_; }
  int out_features() const { return out_features_; }

 private:
  int in_features_;
  int out_features_;
  Variable weight_;
  Variable bias_;  // Undefined when use_bias=false.
};

/// Multi-layer perceptron with ReLU between layers (none after the last).
/// `dims` lists layer widths, e.g. {in, hidden, out}.
class Mlp : public Module {
 public:
  Mlp(const std::vector<int>& dims, Rng* rng);

  Variable Forward(const Variable& x) const;

  std::vector<Variable> Parameters() const override;

  const std::vector<Linear>& layers() const { return layers_; }

 private:
  std::vector<Linear> layers_;
};

}  // namespace vgod::nn

#endif  // VGOD_TENSOR_NN_H_
