#include "detectors/dominant.h"

#include "graph/graph_ops.h"
#include "obs/profile.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {

Dominant::Dominant(DominantConfig config) : config_(config) {}

Dominant::Forward Dominant::RunForward(
    std::shared_ptr<const AttributedGraph> graph,
    const Tensor& attributes) const {
  Variable x = Variable::Constant(attributes);
  Variable z = ag::Relu(encoder1_->Forward(graph, x));
  z = ag::Relu(encoder2_->Forward(graph, z));
  Forward out;
  out.attribute_reconstruction = attribute_decoder_->Forward(graph, z);
  out.structure_reconstruction = ag::Sigmoid(ag::MatMulNT(z, z));
  return out;
}

Status Dominant::Fit(const AttributedGraph& graph) {
  VGOD_MEMORY_PHASE("detector/dominant_fit");
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("Dominant requires node attributes");
  }
  obs::TrainingRun run("Dominant", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const int d = graph.attribute_dim();
  encoder1_ = std::make_unique<gnn::GcnConv>(d, config_.hidden_dim, &rng);
  encoder2_ = std::make_unique<gnn::GcnConv>(config_.hidden_dim,
                                             config_.hidden_dim, &rng);
  attribute_decoder_ =
      std::make_unique<gnn::GcnConv>(config_.hidden_dim, d, &rng);

  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable attr_target = Variable::Constant(graph.attributes());
  Variable adj_target =
      Variable::Constant(graph_ops::DenseAdjacency(graph));

  std::vector<Variable> params = encoder1_->Parameters();
  for (Variable& p : encoder2_->Parameters()) params.push_back(std::move(p));
  for (Variable& p : attribute_decoder_->Parameters()) {
    params.push_back(std::move(p));
  }
  Adam optimizer(params, config_.lr);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Forward forward = RunForward(message_graph, graph.attributes());
    Variable attr_loss = ag::MeanAll(
        ag::RowSquaredDistance(forward.attribute_reconstruction, attr_target));
    Variable struct_loss = ag::MeanAll(
        ag::RowSquaredDistance(forward.structure_reconstruction, adj_target));
    Variable loss = ag::Add(ag::Scale(attr_loss, config_.alpha),
                            ag::Scale(struct_loss, 1.0f - config_.alpha));
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    run.EndEpoch(epoch + 1, loss.value().ScalarValue(),
                 optimizer.GradNorm());
  }
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = run.TotalSeconds();
  return Status::Ok();
}

DetectorOutput Dominant::Score(const AttributedGraph& graph) const {
  VGOD_SCOPE("detector/dominant_score");
  NoGradGuard no_grad;
  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Forward forward = RunForward(message_graph, graph.attributes());
  Variable attr_errors =
      ag::RowSquaredDistance(forward.attribute_reconstruction,
                             Variable::Constant(graph.attributes()));
  Variable struct_errors = ag::RowSquaredDistance(
      forward.structure_reconstruction,
      Variable::Constant(graph_ops::DenseAdjacency(graph)));

  DetectorOutput out;
  const int n = graph.num_nodes();
  out.score.resize(n);
  out.structural_score.resize(n);
  out.contextual_score.resize(n);
  for (int i = 0; i < n; ++i) {
    out.contextual_score[i] = attr_errors.value().At(i, 0);
    out.structural_score[i] = struct_errors.value().At(i, 0);
    out.score[i] = config_.alpha * out.contextual_score[i] +
                   (1.0f - config_.alpha) * out.structural_score[i];
  }
  return out;
}

}  // namespace vgod::detectors
