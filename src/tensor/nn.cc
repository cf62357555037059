#include "tensor/nn.h"

#include "tensor/init.h"
#include "tensor/kernels.h"

namespace vgod::nn {

int64_t Module::NumParameters() const {
  int64_t total = 0;
  for (const Variable& p : Parameters()) total += p.value().size();
  return total;
}

Linear::Linear(int in_features, int out_features, Rng* rng, bool use_bias)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Variable::Parameter(
          init::XavierUniform(in_features, out_features, rng))) {
  if (use_bias) {
    bias_ = Variable::Parameter(Tensor::Zeros(1, out_features));
  }
}

Variable Linear::Forward(const Variable& x) const {
  Variable out = ag::MatMul(x, weight_);
  if (bias_.defined()) out = ag::AddRowVector(out, bias_);
  return out;
}

Tensor Linear::Apply(const Tensor& x) const {
  Tensor out = kernels::MatMul(x, weight_.value());
  if (bias_.defined()) out = kernels::AddRowVector(out, bias_.value());
  return out;
}

std::vector<Variable> Linear::Parameters() const {
  std::vector<Variable> params = {weight_};
  if (bias_.defined()) params.push_back(bias_);
  return params;
}

Mlp::Mlp(const std::vector<int>& dims, Rng* rng) {
  VGOD_CHECK_GE(dims.size(), 2u);
  layers_.reserve(dims.size() - 1);
  for (size_t i = 0; i + 1 < dims.size(); ++i) {
    layers_.emplace_back(dims[i], dims[i + 1], rng);
  }
}

Variable Mlp::Forward(const Variable& x) const {
  Variable h = x;
  for (size_t i = 0; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i + 1 < layers_.size()) h = ag::Relu(h);
  }
  return h;
}

std::vector<Variable> Mlp::Parameters() const {
  std::vector<Variable> params;
  for (const Linear& layer : layers_) {
    for (Variable& p : layer.Parameters()) params.push_back(std::move(p));
  }
  return params;
}

}  // namespace vgod::nn
