#include "detectors/simple.h"

#include "eval/metrics.h"
#include "tensor/kernels.h"

namespace vgod::detectors {
namespace {

std::vector<double> DegreeScores(const AttributedGraph& graph) {
  std::vector<double> out(graph.num_nodes());
  for (int i = 0; i < graph.num_nodes(); ++i) out[i] = graph.Degree(i);
  return out;
}

std::vector<double> NormScores(const AttributedGraph& graph) {
  const Tensor norms = kernels::RowNorms(graph.attributes());
  std::vector<double> out(graph.num_nodes());
  for (int i = 0; i < graph.num_nodes(); ++i) out[i] = norms.At(i, 0);
  return out;
}

}  // namespace

Status DegNorm::Fit(const AttributedGraph& graph) {
  (void)graph;  // Training-free by design.
  return Status::Ok();
}

DetectorOutput DegNorm::Score(const AttributedGraph& graph) const {
  DetectorOutput out;
  out.structural_score = DegreeScores(graph);
  out.contextual_score = NormScores(graph);
  out.score = eval::CombineScores(eval::MeanStdNormalize(out.structural_score),
                                  eval::MeanStdNormalize(out.contextual_score));
  return out;
}

Result<ModelBundle> DegNorm::ExportBundle() const {
  ModelBundle bundle;
  bundle.detector = name();
  bundle.config = obs::JsonValue(obs::JsonValue::Object{});
  return bundle;
}

Status DegNorm::RestoreFromBundle(const ModelBundle& bundle) {
  if (bundle.detector != name()) {
    return Status::InvalidArgument("bundle is for detector '" +
                                   bundle.detector + "', not " + name());
  }
  return Status::Ok();
}

Status Deg::Fit(const AttributedGraph& graph) {
  (void)graph;
  return Status::Ok();
}

DetectorOutput Deg::Score(const AttributedGraph& graph) const {
  DetectorOutput out;
  out.score = DegreeScores(graph);
  out.structural_score = out.score;
  return out;
}

Status L2Norm::Fit(const AttributedGraph& graph) {
  (void)graph;
  return Status::Ok();
}

DetectorOutput L2Norm::Score(const AttributedGraph& graph) const {
  DetectorOutput out;
  out.score = NormScores(graph);
  out.contextual_score = out.score;
  return out;
}

Status RandomDetector::Fit(const AttributedGraph& graph) {
  (void)graph;
  return Status::Ok();
}

DetectorOutput RandomDetector::Score(const AttributedGraph& graph) const {
  Rng rng(seed_);
  DetectorOutput out;
  out.score.resize(graph.num_nodes());
  for (double& s : out.score) s = rng.Uniform();
  return out;
}

}  // namespace vgod::detectors
