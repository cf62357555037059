#ifndef VGOD_GNN_LAYERS_H_
#define VGOD_GNN_LAYERS_H_

#include <memory>
#include <vector>

#include "core/rng.h"
#include "gnn/graph_autograd.h"
#include "graph/graph.h"
#include "tensor/nn.h"

namespace vgod::gnn {

/// Which message-passing layer an encoder stack uses. ARM (paper §V-B) is
/// parameterized over this; Tables VIII-IX ablate it.
enum class GnnKind { kGcn, kGat, kGin, kSage };

const char* GnnKindName(GnnKind kind);

/// A message-passing layer (paper Eq. 1). Forward takes the graph and the
/// current node representations. Layers do not add self loops themselves;
/// pass `graph.WithSelfLoops()` for GCN/GAT semantics that include the node
/// itself in its own aggregation.
class GnnLayer : public nn::Module {
 public:
  virtual Variable Forward(std::shared_ptr<const AttributedGraph> graph,
                           const Variable& x) const = 0;
};

/// GCN layer (paper Eq. 2): H' = Â H W with Â the symmetric-normalized
/// adjacency of the given graph.
class GcnConv : public GnnLayer {
 public:
  GcnConv(int in_features, int out_features, Rng* rng);

  Variable Forward(std::shared_ptr<const AttributedGraph> graph,
                   const Variable& x) const override;
  std::vector<Variable> Parameters() const override;

 private:
  nn::Linear linear_;
};

/// GAT layer (paper Eq. 3) with `heads` attention heads concatenated, each
/// of width out_features / heads (out_features must divide evenly).
class GatConv : public GnnLayer {
 public:
  GatConv(int in_features, int out_features, Rng* rng, int heads = 1,
          float negative_slope = 0.2f);

  Variable Forward(std::shared_ptr<const AttributedGraph> graph,
                   const Variable& x) const override;
  std::vector<Variable> Parameters() const override;

  /// Inference form of a single-head layer, off the autograd tape: the
  /// node projections s = x W, p = s a_src and q = s a_dst, each row-local.
  /// Forward(graph, x) equals graph_ops::GatAggregate(graph, s, p, q) bit
  /// for bit; ARM's incremental rescoring retains these per-node arrays.
  struct Projection {
    Tensor s, p, q;
  };
  Projection Project(const Tensor& x) const;
  int num_heads() const { return static_cast<int>(heads_.size()); }
  float negative_slope() const { return negative_slope_; }

 private:
  struct Head {
    nn::Linear linear;
    Variable attn_src;  // (out/heads) x 1
    Variable attn_dst;  // (out/heads) x 1
  };
  std::vector<Head> heads_;
  float negative_slope_;
};

/// GIN layer (paper Eq. 4): H' = MLP((1 + eps) H + sum_{j in N} H_j) with a
/// fixed eps (paper allows fixed or learnable; fixed matches its default).
class GinConv : public GnnLayer {
 public:
  GinConv(int in_features, int out_features, Rng* rng, float eps = 0.0f);

  Variable Forward(std::shared_ptr<const AttributedGraph> graph,
                   const Variable& x) const override;
  std::vector<Variable> Parameters() const override;

 private:
  nn::Mlp mlp_;
  float eps_;
};

/// GraphSAGE layer with mean aggregator:
/// H' = H W_self + mean_{j in N}(H_j) W_neigh.
class SageConv : public GnnLayer {
 public:
  SageConv(int in_features, int out_features, Rng* rng);

  Variable Forward(std::shared_ptr<const AttributedGraph> graph,
                   const Variable& x) const override;
  std::vector<Variable> Parameters() const override;

 private:
  nn::Linear self_linear_;
  nn::Linear neighbor_linear_;
};

/// Builds a layer of the requested kind.
std::unique_ptr<GnnLayer> MakeConv(GnnKind kind, int in_features,
                                   int out_features, Rng* rng);

}  // namespace vgod::gnn

#endif  // VGOD_GNN_LAYERS_H_
