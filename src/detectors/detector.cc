#include "detectors/detector.h"

#include <algorithm>
#include <iterator>

#include "graph/graph_ops.h"
#include "tensor/kernels.h"

namespace vgod::detectors {

std::vector<int> UnionRows(const std::vector<int>& a,
                           const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  return out;
}

Tensor PreparedAttributeRows(const AttributedGraph& graph,
                             const std::vector<int>& rows,
                             bool row_normalize) {
  VGOD_CHECK(graph.has_attributes()) << "scoring requires node attributes";
  const Tensor x = kernels::GatherRows(graph.attributes(), rows);
  return row_normalize ? graph_ops::RowNormalizeAttributes(x) : x;
}

ScoreUpdate OutlierDetector::ScoreIncremental(
    const AttributedGraph& graph, const ScoreState* base,
    const ChangedRows& changed) const {
  (void)base;
  (void)changed;
  ScoreUpdate update;
  update.output = Score(graph);
  update.dirty_rows = graph.num_nodes();
  return update;
}

Result<ModelBundle> OutlierDetector::ExportBundle() const {
  return Status::FailedPrecondition(name() +
                                    " does not support model bundles");
}

Status OutlierDetector::RestoreFromBundle(const ModelBundle& bundle) {
  (void)bundle;
  return Status::FailedPrecondition(name() +
                                    " does not support model bundles");
}

}  // namespace vgod::detectors
