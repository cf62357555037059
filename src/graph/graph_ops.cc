#include "graph/graph_ops.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "core/check.h"
#include "core/parallel.h"
#include "obs/profile.h"

namespace vgod::graph_ops {
namespace {

/// Row grain for per-node parallel loops: enough nodes per chunk that one
/// chunk covers ~16k scalar ops given `row_work` per node. Pure function
/// of the shape (see core/parallel.h determinism contract).
int64_t NodeGrain(int64_t row_work) {
  return std::max<int64_t>(1, (int64_t{1} << 14) /
                                  std::max<int64_t>(1, row_work));
}

}  // namespace

Tensor DegreeVector(const AttributedGraph& graph) {
  Tensor out(graph.num_nodes(), 1);
  for (int i = 0; i < graph.num_nodes(); ++i) {
    out.SetAt(i, 0, static_cast<float>(graph.Degree(i)));
  }
  return out;
}

std::vector<float> GcnNormWeights(const AttributedGraph& graph) {
  const int n = graph.num_nodes();
  std::vector<float> inv_sqrt_deg(n);
  for (int i = 0; i < n; ++i) {
    const int deg = graph.Degree(i);
    inv_sqrt_deg[i] =
        deg > 0 ? 1.0f / std::sqrt(static_cast<float>(deg)) : 0.0f;
  }
  std::vector<float> weights(graph.num_directed_edges());
  int64_t e = 0;
  for (int u = 0; u < n; ++u) {
    for (int32_t v : graph.Neighbors(u)) {
      weights[e++] = inv_sqrt_deg[u] * inv_sqrt_deg[v];
    }
  }
  return weights;
}

Tensor Spmm(const AttributedGraph& graph,
            const std::vector<float>& edge_weights, const Tensor& h) {
  VGOD_CHECK_EQ(h.rows(), graph.num_nodes());
  if (!edge_weights.empty()) {
    VGOD_CHECK_EQ(static_cast<int64_t>(edge_weights.size()),
                  graph.num_directed_edges());
  }
  const int n = graph.num_nodes();
  const int d = h.cols();
  VGOD_SCOPE("graph/spmm");
  obs::ProfileAddBytes(
      (2 * static_cast<int64_t>(n) * d +
       graph.num_directed_edges() * (d + 3)) *
      static_cast<int64_t>(sizeof(float)));
  Tensor out = Tensor::Zeros(n, d);
  const float* src = h.data();
  float* dst = out.data();
  const auto& row_ptr = graph.row_ptr();
  const auto& col_idx = graph.col_idx();
  // Row-parallel gather: each destination row is produced by one chunk in
  // the serial edge order, so results match the serial kernel bit for bit.
  const int64_t avg_work =
      n == 0 ? 1 : (graph.num_directed_edges() * d) / std::max(n, 1);
  par::ParallelFor(0, n, NodeGrain(avg_work), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      float* orow = dst + static_cast<size_t>(i) * d;
      for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
        const float w = edge_weights.empty() ? 1.0f : edge_weights[e];
        const float* hrow = src + static_cast<size_t>(col_idx[e]) * d;
        for (int j = 0; j < d; ++j) orow[j] += w * hrow[j];
      }
    }
  });
  return out;
}

CsrTranspose BuildCsrTranspose(const AttributedGraph& graph) {
  VGOD_SCOPE("graph/build_csr_transpose");
  const int n = graph.num_nodes();
  const auto& row_ptr = graph.row_ptr();
  const auto& col_idx = graph.col_idx();
  const int64_t num_edges = graph.num_directed_edges();
  CsrTranspose t;
  t.row_ptr.assign(n + 1, 0);
  t.src.resize(num_edges);
  t.edge.resize(num_edges);
  for (int64_t e = 0; e < num_edges; ++e) ++t.row_ptr[col_idx[e] + 1];
  for (int i = 0; i < n; ++i) t.row_ptr[i + 1] += t.row_ptr[i];
  std::vector<int64_t> cursor(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (int i = 0; i < n; ++i) {
    for (int64_t e = row_ptr[i]; e < row_ptr[i + 1]; ++e) {
      const int64_t pos = cursor[col_idx[e]]++;
      t.src[pos] = static_cast<int32_t>(i);
      t.edge[pos] = e;
    }
  }
  return t;
}

Tensor NeighborMean(const AttributedGraph& graph, const Tensor& h) {
  VGOD_SCOPE("graph/neighbor_mean");
  Tensor sum = Spmm(graph, {}, h);
  const int n = graph.num_nodes();
  const int d = h.cols();
  float* data = sum.data();
  par::ParallelFor(0, n, NodeGrain(d), [&](int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const int deg = graph.Degree(static_cast<int>(i));
      if (deg == 0) continue;
      const float inv = 1.0f / static_cast<float>(deg);
      float* row = data + static_cast<size_t>(i) * d;
      for (int j = 0; j < d; ++j) row[j] *= inv;
    }
  });
  return sum;
}

namespace {

/// Neighbor variance of one row (see NeighborVarianceScore). `mean` is d
/// floats of scratch. The neighbor mean sums in walk order and scales by
/// 1/|N_i| in float, then the squared deviations accumulate in double, so
/// every row is produced by this one body whatever the caller.
float NeighborVarianceRow(const AttributedGraph& graph, int node,
                          bool self_loop, const float* h, int d,
                          float* mean) {
  std::fill(mean, mean + d, 0.0f);
  int count = 0;
  ForEachNeighbor(graph, node, self_loop, [&](int32_t j) {
    const float* hrow = h + static_cast<size_t>(j) * d;
    for (int c = 0; c < d; ++c) mean[c] += hrow[c];
    ++count;
  });
  if (count == 0) return 0.0f;
  const float inv = 1.0f / static_cast<float>(count);
  for (int c = 0; c < d; ++c) mean[c] *= inv;
  double acc = 0.0;
  ForEachNeighbor(graph, node, self_loop, [&](int32_t j) {
    const float* hrow = h + static_cast<size_t>(j) * d;
    for (int c = 0; c < d; ++c) {
      const double diff = static_cast<double>(hrow[c]) - mean[c];
      acc += diff * diff;
    }
  });
  return static_cast<float>(acc / count);
}

int64_t AvgRowWork(const AttributedGraph& graph, int d) {
  const int n = graph.num_nodes();
  return n == 0 ? 1 : (graph.num_directed_edges() * d) / std::max(n, 1);
}

std::vector<int> AllRows(int n) {
  std::vector<int> rows(n);
  std::iota(rows.begin(), rows.end(), 0);
  return rows;
}

}  // namespace

std::vector<int> WithNeighbors(const AttributedGraph& graph,
                               const std::vector<int>& rows) {
  std::vector<char> marked(graph.num_nodes(), 0);
  for (int row : rows) {
    marked[row] = 1;
    for (int32_t j : graph.Neighbors(row)) marked[j] = 1;
  }
  std::vector<int> out;
  for (int i = 0; i < graph.num_nodes(); ++i) {
    if (marked[i]) out.push_back(i);
  }
  return out;
}

Tensor NeighborVarianceScore(const AttributedGraph& graph, const Tensor& h,
                             bool self_loop) {
  return NeighborVarianceScoreRows(graph, h, self_loop,
                                   AllRows(graph.num_nodes()));
}

Tensor NeighborVarianceScoreRows(const AttributedGraph& graph,
                                 const Tensor& h, bool self_loop,
                                 const std::vector<int>& rows) {
  VGOD_CHECK_EQ(h.rows(), graph.num_nodes());
  VGOD_SCOPE("graph/neighbor_variance_score");
  const int d = h.cols();
  Tensor out(static_cast<int>(rows.size()), 1);
  float* dst = out.data();
  par::ParallelFor(0, static_cast<int64_t>(rows.size()),
                   NodeGrain(AvgRowWork(graph, d)),
                   [&](int64_t lo, int64_t hi) {
                     std::vector<float> mean(d);
                     for (int64_t k = lo; k < hi; ++k) {
                       dst[k] = NeighborVarianceRow(graph, rows[k], self_loop,
                                                    h.data(), d, mean.data());
                     }
                   });
  return out;
}

void GatAggregateRow(const AttributedGraph& graph, int node, bool self_loop,
                     const float* s, const float* p, const float* q, int d,
                     float negative_slope, float* out_row, float* attention,
                     float* pre_activation) {
  // Edge scores with a max shift for a stable softmax.
  int count = 0;
  float max_score = -std::numeric_limits<float>::infinity();
  ForEachNeighbor(graph, node, self_loop, [&](int32_t j) {
    const float z = p[node] + q[j];
    if (pre_activation != nullptr) pre_activation[count] = z;
    const float activated = z > 0.0f ? z : negative_slope * z;
    attention[count++] = activated;
    max_score = std::max(max_score, activated);
  });
  float denom = 0.0f;
  for (int k = 0; k < count; ++k) {
    attention[k] = std::exp(attention[k] - max_score);
    denom += attention[k];
  }
  int k = 0;
  ForEachNeighbor(graph, node, self_loop, [&](int32_t j) {
    attention[k] /= denom;
    const float alpha = attention[k++];
    const float* srow = s + static_cast<size_t>(j) * d;
    for (int c = 0; c < d; ++c) out_row[c] += alpha * srow[c];
  });
}

Tensor GatAggregate(const AttributedGraph& graph, bool self_loop,
                    const Tensor& s, const Tensor& p, const Tensor& q,
                    float negative_slope) {
  return GatAggregateRows(graph, self_loop, s, p, q, negative_slope,
                          AllRows(graph.num_nodes()));
}

Tensor GatAggregateRows(const AttributedGraph& graph, bool self_loop,
                        const Tensor& s, const Tensor& p, const Tensor& q,
                        float negative_slope, const std::vector<int>& rows) {
  const int n = graph.num_nodes();
  const int d = s.cols();
  VGOD_CHECK_EQ(s.rows(), n);
  VGOD_CHECK(p.rows() == n && p.cols() == 1 && q.rows() == n &&
             q.cols() == 1);
  VGOD_SCOPE("graph/gat_aggregate");
  Tensor out = Tensor::Zeros(static_cast<int>(rows.size()), d);
  par::ParallelFor(
      0, static_cast<int64_t>(rows.size()), NodeGrain(AvgRowWork(graph, d)),
      [&](int64_t lo, int64_t hi) {
        std::vector<float> attention;
        for (int64_t k = lo; k < hi; ++k) {
          attention.resize(static_cast<size_t>(graph.Degree(rows[k])) + 1);
          GatAggregateRow(graph, rows[k], self_loop, s.data(), p.data(),
                          q.data(), d, negative_slope,
                          out.data() + static_cast<size_t>(k) * d,
                          attention.data(), nullptr);
        }
      });
  return out;
}

double EdgeHomophily(const AttributedGraph& graph) {
  VGOD_SCOPE("graph/edge_homophily");
  VGOD_CHECK(graph.has_communities());
  const auto& labels = graph.communities();
  int64_t same = 0;
  int64_t total = 0;
  for (int u = 0; u < graph.num_nodes(); ++u) {
    for (int32_t v : graph.Neighbors(u)) {
      ++total;
      if (labels[u] == labels[v]) ++same;
    }
  }
  return total == 0 ? 0.0 : static_cast<double>(same) / total;
}

Tensor DenseAdjacency(const AttributedGraph& graph) {
  VGOD_SCOPE("graph/dense_adjacency");
  const int n = graph.num_nodes();
  Tensor out = Tensor::Zeros(n, n);
  for (int u = 0; u < n; ++u) {
    float* row = out.data() + static_cast<size_t>(u) * n;
    for (int32_t v : graph.Neighbors(u)) row[v] = 1.0f;
  }
  return out;
}

Tensor RowNormalizeAttributes(const Tensor& attributes, float eps) {
  VGOD_SCOPE("graph/row_normalize_attributes");
  Tensor out = attributes.Clone();
  for (int i = 0; i < out.rows(); ++i) {
    float* row = out.data() + static_cast<size_t>(i) * out.cols();
    double sum = 0.0;
    for (int j = 0; j < out.cols(); ++j) sum += std::fabs(row[j]);
    if (sum <= eps) continue;
    const float inv = static_cast<float>(1.0 / sum);
    for (int j = 0; j < out.cols(); ++j) row[j] *= inv;
  }
  return out;
}

}  // namespace vgod::graph_ops
