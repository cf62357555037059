#ifndef VGOD_GRAPH_GRAPH_OPS_H_
#define VGOD_GRAPH_GRAPH_OPS_H_

#include <vector>

#include "graph/graph.h"
#include "tensor/tensor.h"

namespace vgod::graph_ops {

/// n x 1 tensor of node degrees. The structural leakage probe of the
/// paper's DegNorm baseline (Eq. 20).
Tensor DegreeVector(const AttributedGraph& graph);

/// Per-directed-edge weights for the GCN propagation rule (Eq. 2):
/// w(u->v) = 1 / sqrt(deg(u) * deg(v)), aligned with the graph's CSR order.
/// Call on a graph that already includes self loops for the standard
/// "renormalization trick".
std::vector<float> GcnNormWeights(const AttributedGraph& graph);

/// Sparse-dense product: out[i] = sum_{j in N(i)} w(i->j) * h[j].
/// `edge_weights` aligned with CSR order, or empty for all-ones.
Tensor Spmm(const AttributedGraph& graph,
            const std::vector<float>& edge_weights, const Tensor& h);

/// CSR of the reversed edges, remembering where each incoming edge lives
/// in the forward CSR. For destination j, slots [row_ptr[j], row_ptr[j+1])
/// list its incoming edges ordered by *forward* edge slot — i.e. by
/// ascending source row, the exact order a serial scatter over the forward
/// CSR would touch j. The parallel backward kernels in gnn/graph_autograd
/// gather over this structure so per-destination float accumulation order
/// (and therefore every gradient bit) is independent of the thread count
/// (docs/PARALLELISM.md).
struct CsrTranspose {
  std::vector<int64_t> row_ptr;  // Size num_nodes + 1.
  std::vector<int32_t> src;      // Source node of each incoming edge.
  std::vector<int64_t> edge;     // Forward-CSR slot of that edge.
};

/// Builds the transpose index in O(V + E) (counting sort by destination,
/// filled in ascending forward-slot order).
CsrTranspose BuildCsrTranspose(const AttributedGraph& graph);

/// Mean of neighbor rows (paper Eq. 7, the MeanConv layer). Nodes with no
/// neighbors get a zero row.
Tensor NeighborMean(const AttributedGraph& graph, const Tensor& h);

/// Calls fn(j) for every neighbor j of `node` in CSR order. With
/// `self_loop`, `node` itself is visited at its sorted position (once, even
/// if the graph already stores the loop): exactly the row WithSelfLoops()
/// would materialize, so kernels that walk it sum in the same order
/// without building the self-looped CSR copy.
template <typename Fn>
void ForEachNeighbor(const AttributedGraph& graph, int node, bool self_loop,
                     Fn&& fn) {
  bool inserted = !self_loop;
  for (int32_t j : graph.Neighbors(node)) {
    if (!inserted && j >= node) {
      if (j != node) fn(static_cast<int32_t>(node));
      inserted = true;
    }
    fn(j);
  }
  if (!inserted) fn(static_cast<int32_t>(node));
}

/// Sorted union of `rows` (sorted, unique) and all their neighbors: the
/// rows whose aggregation reads a row of `rows` (the graph is undirected).
std::vector<int> WithNeighbors(const AttributedGraph& graph,
                               const std::vector<int>& rows);

/// n x 1 neighbor-variance score (paper Eq. 7-9, the MeanConv+MinusConv
/// composition): o_i = || (1/|N_i|) sum_{j in N_i} (h_j - mean_i)^2 ||_1.
/// Nodes with no neighbors score 0. `self_loop` adds each node to its own
/// neighborhood (Eq. 13) as if the graph were WithSelfLoops().
Tensor NeighborVarianceScore(const AttributedGraph& graph, const Tensor& h,
                             bool self_loop = false);

/// Rows `rows` of NeighborVarianceScore(graph, h, self_loop), as a
/// rows.size() x 1 tensor: the same per-row code, so the same bits.
Tensor NeighborVarianceScoreRows(const AttributedGraph& graph,
                                 const Tensor& h, bool self_loop,
                                 const std::vector<int>& rows);

/// One row of GAT aggregation (paper Eq. 3) over `node`'s neighbor walk:
///   alpha_j = softmax_j( LeakyReLU(p[node] + q[j]) ),
///   out_row += sum_j alpha_j s[j]   (out_row must start zeroed),
/// with s a row-major n x d matrix and p, q n-vectors. `attention`
/// receives the per-neighbor alpha in walk order and must hold the walk's
/// length; `pre_activation`, when non-null, receives p + q the same way.
/// The one body behind every GAT forward, full graph or row list.
void GatAggregateRow(const AttributedGraph& graph, int node, bool self_loop,
                     const float* s, const float* p, const float* q, int d,
                     float negative_slope, float* out_row, float* attention,
                     float* pre_activation);

/// GAT aggregation of every node (n x d) from s (n x d) and p, q (n x 1).
Tensor GatAggregate(const AttributedGraph& graph, bool self_loop,
                    const Tensor& s, const Tensor& p, const Tensor& q,
                    float negative_slope);

/// Rows `rows` of GatAggregate(...), as a rows.size() x d tensor.
Tensor GatAggregateRows(const AttributedGraph& graph, bool self_loop,
                        const Tensor& s, const Tensor& p, const Tensor& q,
                        float negative_slope, const std::vector<int>& rows);

/// Fraction of directed edges whose endpoints share a community label
/// (edge homophily, as reported for Weibo in paper §VI-E4). Requires
/// community labels.
double EdgeHomophily(const AttributedGraph& graph);

/// Dense adjacency matrix (n x n, 1.0 where a directed edge exists). Used
/// by reconstruction baselines; intended for the bench-scale graphs only.
Tensor DenseAdjacency(const AttributedGraph& graph);

/// Attributes divided by their row sums (the paper's row normalization for
/// Weibo). Rows summing to <= eps are left unchanged.
Tensor RowNormalizeAttributes(const Tensor& attributes, float eps = 1e-12f);

}  // namespace vgod::graph_ops

#endif  // VGOD_GRAPH_GRAPH_OPS_H_
