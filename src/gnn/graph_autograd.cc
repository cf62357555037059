#include "gnn/graph_autograd.h"

#include <cmath>
#include <utility>

#include "core/parallel.h"
#include "graph/graph_ops.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "tensor/kernels.h"

namespace vgod::ag {

using ::vgod::internal::AutogradNode;

namespace {

// Parallelism in this file follows the determinism contract of
// core/parallel.h. Forward passes are destination-row-parallel over the
// forward CSR (each output row is one serial iteration). Backward passes
// of the scatter form "gh[col(e)] += ..." are rewritten as gathers over
// the transpose CSR: each destination row accumulates its incoming edges
// in ascending forward-slot order — exactly the order the serial scatter
// used — so gradients are bit-identical for every thread count. A
// per-thread-scratch merge would instead group partial sums by thread,
// making the result depend on how many threads ran.

/// Node grain sized so a chunk covers ~16k scalar ops when each node costs
/// about `row_work`.
int64_t NodeGrain(int64_t row_work) {
  return std::max<int64_t>(1, (int64_t{1} << 14) /
                                  std::max<int64_t>(1, row_work));
}

int64_t AvgRowWork(const AttributedGraph& graph, int d) {
  const int n = graph.num_nodes();
  if (n == 0) return 1;
  return graph.num_directed_edges() * d / n;
}

}  // namespace

Variable Spmm(std::shared_ptr<const AttributedGraph> graph,
              std::vector<float> edge_weights, const Variable& h) {
  VGOD_COUNTER_INC("gnn.spmm.calls");
  VGOD_COUNTER_ADD("gnn.spmm.edges", graph->num_directed_edges());
  Tensor out = graph_ops::Spmm(*graph, edge_weights, h.value());
  const int d = h.cols();
  return Variable::FromOp(
      std::move(out), {h},
      [graph = std::move(graph), weights = std::move(edge_weights),
       d](AutogradNode& self) {
        VGOD_SCOPE("gnn/spmm_backward");
        // Backward of out[i] += w * h[j] is gh[j] += w * g[i]: a scatter
        // over destinations j, executed as a transpose-CSR gather so each
        // gh row sums its contributions in forward-slot order.
        const int n = graph->num_nodes();
        Tensor gh = Tensor::Zeros(n, d);
        const graph_ops::CsrTranspose t =
            graph_ops::BuildCsrTranspose(*graph);
        const float* g = self.grad.data();
        float* dst = gh.data();
        par::ParallelFor(
            0, n, NodeGrain(AvgRowWork(*graph, d)),
            [&](int64_t lo, int64_t hi) {
              for (int64_t j = lo; j < hi; ++j) {
                float* hrow = dst + static_cast<size_t>(j) * d;
                for (int64_t s = t.row_ptr[j]; s < t.row_ptr[j + 1]; ++s) {
                  const float w =
                      weights.empty() ? 1.0f : weights[t.edge[s]];
                  const float* grow =
                      g + static_cast<size_t>(t.src[s]) * d;
                  for (int c = 0; c < d; ++c) hrow[c] += w * grow[c];
                }
              }
            });
        self.inputs[0]->AccumulateGrad(gh);
      },
      "Spmm");
}

Variable NeighborMean(std::shared_ptr<const AttributedGraph> graph,
                      const Variable& h) {
  VGOD_COUNTER_INC("gnn.neighbor_mean.calls");
  VGOD_COUNTER_ADD("gnn.spmm.edges", graph->num_directed_edges());
  Tensor out = graph_ops::NeighborMean(*graph, h.value());
  const int d = h.cols();
  return Variable::FromOp(
      std::move(out), {h},
      [graph = std::move(graph), d](AutogradNode& self) {
        VGOD_SCOPE("gnn/neighbor_mean_backward");
        const int n = graph->num_nodes();
        Tensor gh = Tensor::Zeros(n, d);
        const graph_ops::CsrTranspose t =
            graph_ops::BuildCsrTranspose(*graph);
        const float* g = self.grad.data();
        float* dst = gh.data();
        par::ParallelFor(
            0, n, NodeGrain(AvgRowWork(*graph, d)),
            [&](int64_t lo, int64_t hi) {
              for (int64_t j = lo; j < hi; ++j) {
                float* hrow = dst + static_cast<size_t>(j) * d;
                for (int64_t s = t.row_ptr[j]; s < t.row_ptr[j + 1]; ++s) {
                  const int i = t.src[s];
                  const float inv =
                      1.0f / static_cast<float>(graph->Degree(i));
                  const float* grow = g + static_cast<size_t>(i) * d;
                  for (int c = 0; c < d; ++c) hrow[c] += inv * grow[c];
                }
              }
            });
        self.inputs[0]->AccumulateGrad(gh);
      },
      "NeighborMean");
}

Variable NeighborVarianceScore(std::shared_ptr<const AttributedGraph> graph,
                               const Variable& h) {
  VGOD_COUNTER_INC("gnn.neighbor_variance.calls");
  VGOD_COUNTER_ADD("gnn.spmm.edges", graph->num_directed_edges());
  Tensor hv = h.value();
  Tensor mean = graph_ops::NeighborMean(*graph, hv);
  Tensor out = graph_ops::NeighborVarianceScore(*graph, hv);
  const int d = hv.cols();
  return Variable::FromOp(
      std::move(out), {h},
      [graph = std::move(graph), hv, mean, d](AutogradNode& self) {
        VGOD_SCOPE("gnn/neighbor_variance_backward");
        // o_i = (1/|N_i|) sum_{j in N_i} ||h_j - mean_i||^2. The dependence
        // of mean_i on h_j folds into d o_i / d h_j = (2/|N_i|)(h_j - mean_i)
        // (the cross term through the mean cancels). Scatter over j,
        // executed as a transpose gather (see file comment).
        const int n = graph->num_nodes();
        Tensor gh = Tensor::Zeros(n, d);
        const graph_ops::CsrTranspose t =
            graph_ops::BuildCsrTranspose(*graph);
        const float* g = self.grad.data();
        const float* src = hv.data();
        const float* mu = mean.data();
        float* dst = gh.data();
        par::ParallelFor(
            0, n, NodeGrain(AvgRowWork(*graph, d)),
            [&](int64_t lo, int64_t hi) {
              for (int64_t j = lo; j < hi; ++j) {
                float* grow = dst + static_cast<size_t>(j) * d;
                const float* hrow = src + static_cast<size_t>(j) * d;
                for (int64_t s = t.row_ptr[j]; s < t.row_ptr[j + 1]; ++s) {
                  const int i = t.src[s];
                  const float coeff =
                      2.0f * g[i] / static_cast<float>(graph->Degree(i));
                  const float* mrow = mu + static_cast<size_t>(i) * d;
                  for (int c = 0; c < d; ++c) {
                    grow[c] += coeff * (hrow[c] - mrow[c]);
                  }
                }
              }
            });
        self.inputs[0]->AccumulateGrad(gh);
      },
      "NeighborVarianceScore");
}

namespace {

/// Everything the GAT backward needs from the forward pass.
struct GatForwardState {
  std::vector<float> attention;  // alpha per CSR edge slot.
  std::vector<float> pre_activation;  // z = p_i + q_j per edge slot.
};

}  // namespace

Variable GatAggregate(std::shared_ptr<const AttributedGraph> graph,
                      const Variable& s, const Variable& p, const Variable& q,
                      float negative_slope) {
  const int n = graph->num_nodes();
  const int d = s.cols();
  VGOD_COUNTER_INC("gnn.gat_aggregate.calls");
  VGOD_COUNTER_ADD("gnn.spmm.edges", graph->num_directed_edges());
  VGOD_CHECK_EQ(s.rows(), n);
  VGOD_CHECK_EQ(p.rows(), n);
  VGOD_CHECK_EQ(p.cols(), 1);
  VGOD_CHECK_EQ(q.rows(), n);
  VGOD_CHECK_EQ(q.cols(), 1);

  Tensor sv = s.value();
  const Tensor& pv = p.value();
  const Tensor& qv = q.value();
  const auto& row_ptr = graph->row_ptr();

  auto state = std::make_shared<GatForwardState>();
  state->attention.resize(graph->num_directed_edges());
  state->pre_activation.resize(graph->num_directed_edges());

  // Row-parallel: each destination i owns its edge slots [row_ptr[i],
  // row_ptr[i+1]) exclusively, so the softmax groups never overlap. The
  // row body is the one inference uses (graph_ops::GatAggregateRow).
  Tensor out = Tensor::Zeros(n, d);
  VGOD_SCOPE("gnn/gat_aggregate");
  par::ParallelFor(
      0, n, NodeGrain(AvgRowWork(*graph, d)),
      [&](int64_t lo_i, int64_t hi_i) {
        for (int64_t i = lo_i; i < hi_i; ++i) {
          graph_ops::GatAggregateRow(
              *graph, static_cast<int>(i), /*self_loop=*/false, sv.data(),
              pv.data(), qv.data(), d, negative_slope,
              out.data() + static_cast<size_t>(i) * d,
              state->attention.data() + row_ptr[i],
              state->pre_activation.data() + row_ptr[i]);
        }
      });

  return Variable::FromOp(
      std::move(out), {s, p, q},
      [graph = std::move(graph), state, sv, negative_slope,
       d](AutogradNode& self) {
        VGOD_SCOPE("gnn/gat_aggregate_backward");
        const int num_nodes = graph->num_nodes();
        const auto& rows = graph->row_ptr();
        const auto& cols = graph->col_idx();
        const float* g = self.grad.data();
        const bool need_s = self.inputs[0]->requires_grad;
        const bool need_p = self.inputs[1]->requires_grad;
        const bool need_q = self.inputs[2]->requires_grad;
        Tensor gs = Tensor::Zeros(num_nodes, d);
        Tensor gp = Tensor::Zeros(num_nodes, 1);
        Tensor gq = Tensor::Zeros(num_nodes, 1);
        // Pass 1 (row-parallel over destinations i): softmax + LeakyReLU
        // backward per attention group. dz[e] lives on edge slots owned by
        // exactly one i; gp[i] is row-local.
        std::vector<float> dz(state->attention.size(), 0.0f);
        par::ParallelFor(
            0, num_nodes, NodeGrain(AvgRowWork(*graph, d)),
            [&](int64_t lo_i, int64_t hi_i) {
              std::vector<float> dalpha;
              for (int64_t i = lo_i; i < hi_i; ++i) {
                const int64_t begin = rows[i], end = rows[i + 1];
                if (begin == end) continue;
                const float* grow = g + static_cast<size_t>(i) * d;
                // d out_i / d alpha_ij = g_i . s_j.
                dalpha.assign(end - begin, 0.0f);
                double weighted_sum = 0.0;  // sum_k alpha_ik * dalpha_ik
                for (int64_t e = begin; e < end; ++e) {
                  const float* srow =
                      sv.data() + static_cast<size_t>(cols[e]) * d;
                  double dot = 0.0;
                  for (int c = 0; c < d; ++c) dot += grow[c] * srow[c];
                  dalpha[e - begin] = static_cast<float>(dot);
                  weighted_sum += state->attention[e] * dot;
                }
                if (!need_p && !need_q) continue;
                for (int64_t e = begin; e < end; ++e) {
                  // Softmax backward within group i, then LeakyReLU.
                  const float de =
                      state->attention[e] *
                      (dalpha[e - begin] -
                       static_cast<float>(weighted_sum));
                  const float slope = state->pre_activation[e] > 0.0f
                                          ? 1.0f
                                          : negative_slope;
                  dz[e] = de * slope;
                  if (need_p) gp.data()[i] += dz[e];
                }
              }
            });
        // Pass 2 (transpose gather over sources j): d out_i / d s_j =
        // alpha_ij g_i and d z_ij / d q_j = 1, both scatters over j in the
        // forward CSR, gathered here in forward-slot order per j.
        if (need_s || need_q) {
          const graph_ops::CsrTranspose t =
              graph_ops::BuildCsrTranspose(*graph);
          par::ParallelFor(
              0, num_nodes, NodeGrain(AvgRowWork(*graph, d)),
              [&](int64_t lo_j, int64_t hi_j) {
                for (int64_t j = lo_j; j < hi_j; ++j) {
                  float* srcg = gs.data() + static_cast<size_t>(j) * d;
                  for (int64_t slot = t.row_ptr[j]; slot < t.row_ptr[j + 1];
                       ++slot) {
                    const int64_t e = t.edge[slot];
                    const int i = t.src[slot];
                    if (need_s) {
                      const float alpha = state->attention[e];
                      const float* grow = g + static_cast<size_t>(i) * d;
                      for (int c = 0; c < d; ++c) {
                        srcg[c] += alpha * grow[c];
                      }
                    }
                    if (need_q) gq.data()[j] += dz[e];
                  }
                }
              });
        }
        if (need_s) self.inputs[0]->AccumulateGrad(gs);
        if (need_p) self.inputs[1]->AccumulateGrad(gp);
        if (need_q) self.inputs[2]->AccumulateGrad(gq);
      },
      "GatAggregate");
}

}  // namespace vgod::ag
