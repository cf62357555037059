#include "gnn/layers.h"

#include "graph/graph_ops.h"
#include "obs/profile.h"
#include "tensor/init.h"
#include "tensor/kernels.h"

namespace vgod::gnn {

const char* GnnKindName(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn:
      return "GCN";
    case GnnKind::kGat:
      return "GAT";
    case GnnKind::kGin:
      return "GIN";
    case GnnKind::kSage:
      return "SAGE";
  }
  return "?";
}

GcnConv::GcnConv(int in_features, int out_features, Rng* rng)
    : linear_(in_features, out_features, rng, /*use_bias=*/false) {}

Variable GcnConv::Forward(std::shared_ptr<const AttributedGraph> graph,
                          const Variable& x) const {
  VGOD_SCOPE("gnn/gcn_forward");
  Variable h = linear_.Forward(x);
  return ag::Spmm(graph, graph_ops::GcnNormWeights(*graph), h);
}

std::vector<Variable> GcnConv::Parameters() const {
  return linear_.Parameters();
}

GatConv::GatConv(int in_features, int out_features, Rng* rng, int heads,
                 float negative_slope)
    : negative_slope_(negative_slope) {
  VGOD_CHECK_GT(heads, 0);
  VGOD_CHECK_EQ(out_features % heads, 0)
      << "out_features must divide evenly across heads";
  const int head_dim = out_features / heads;
  heads_.reserve(heads);
  for (int h = 0; h < heads; ++h) {
    heads_.push_back(Head{
        nn::Linear(in_features, head_dim, rng, /*use_bias=*/false),
        Variable::Parameter(init::XavierUniform(head_dim, 1, rng)),
        Variable::Parameter(init::XavierUniform(head_dim, 1, rng)),
    });
  }
}

Variable GatConv::Forward(std::shared_ptr<const AttributedGraph> graph,
                          const Variable& x) const {
  VGOD_SCOPE("gnn/gat_forward");
  std::vector<Variable> outputs;
  outputs.reserve(heads_.size());
  for (const Head& head : heads_) {
    Variable s = head.linear.Forward(x);
    Variable p = ag::MatMul(s, head.attn_src);
    Variable q = ag::MatMul(s, head.attn_dst);
    outputs.push_back(ag::GatAggregate(graph, s, p, q, negative_slope_));
  }
  return outputs.size() == 1 ? outputs[0] : ag::ConcatCols(outputs);
}

GatConv::Projection GatConv::Project(const Tensor& x) const {
  VGOD_CHECK_EQ(heads_.size(), 1u) << "Project() covers single-head layers";
  const Head& head = heads_[0];
  Projection out;
  out.s = head.linear.Apply(x);
  out.p = kernels::MatMul(out.s, head.attn_src.value());
  out.q = kernels::MatMul(out.s, head.attn_dst.value());
  return out;
}

std::vector<Variable> GatConv::Parameters() const {
  std::vector<Variable> params;
  for (const Head& head : heads_) {
    for (Variable& p : head.linear.Parameters()) params.push_back(p);
    params.push_back(head.attn_src);
    params.push_back(head.attn_dst);
  }
  return params;
}

GinConv::GinConv(int in_features, int out_features, Rng* rng, float eps)
    : mlp_({in_features, out_features, out_features}, rng), eps_(eps) {}

Variable GinConv::Forward(std::shared_ptr<const AttributedGraph> graph,
                          const Variable& x) const {
  VGOD_SCOPE("gnn/gin_forward");
  Variable aggregated = ag::Spmm(graph, {}, x);
  Variable combined = ag::Add(ag::Scale(x, 1.0f + eps_), aggregated);
  return mlp_.Forward(combined);
}

std::vector<Variable> GinConv::Parameters() const { return mlp_.Parameters(); }

SageConv::SageConv(int in_features, int out_features, Rng* rng)
    : self_linear_(in_features, out_features, rng),
      neighbor_linear_(in_features, out_features, rng, /*use_bias=*/false) {}

Variable SageConv::Forward(std::shared_ptr<const AttributedGraph> graph,
                           const Variable& x) const {
  VGOD_SCOPE("gnn/sage_forward");
  Variable neighbor = ag::NeighborMean(graph, x);
  return ag::Add(self_linear_.Forward(x), neighbor_linear_.Forward(neighbor));
}

std::vector<Variable> SageConv::Parameters() const {
  std::vector<Variable> params = self_linear_.Parameters();
  for (Variable& p : neighbor_linear_.Parameters()) {
    params.push_back(std::move(p));
  }
  return params;
}

std::unique_ptr<GnnLayer> MakeConv(GnnKind kind, int in_features,
                                   int out_features, Rng* rng) {
  switch (kind) {
    case GnnKind::kGcn:
      return std::make_unique<GcnConv>(in_features, out_features, rng);
    case GnnKind::kGat:
      return std::make_unique<GatConv>(in_features, out_features, rng);
    case GnnKind::kGin:
      return std::make_unique<GinConv>(in_features, out_features, rng);
    case GnnKind::kSage:
      return std::make_unique<SageConv>(in_features, out_features, rng);
  }
  VGOD_CHECK(false) << "unknown GnnKind";
  return nullptr;
}

}  // namespace vgod::gnn
