#include "detectors/anomalydae.h"

#include "graph/graph_ops.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {

AnomalyDae::AnomalyDae(AnomalyDaeConfig config) : config_(config) {}

AnomalyDae::Forward AnomalyDae::RunForward(
    std::shared_ptr<const AttributedGraph> graph,
    const Tensor& attributes) const {
  Variable x = Variable::Constant(attributes);
  // Structure encoder: dense transform, then a GAT attention layer.
  Variable zv = ag::Relu(structure_in_->Forward(x));
  zv = structure_gat_->Forward(graph, zv);
  // Attribute encoder: per-attribute embeddings from X^T (d x n input).
  Variable xt = Variable::Constant(kernels::Transpose(attributes));
  Variable za = attribute_encoder_->Forward(xt);
  Forward out;
  out.structure_reconstruction = ag::Sigmoid(ag::MatMulNT(zv, zv));
  out.attribute_reconstruction = ag::MatMulNT(zv, za);
  return out;
}

Status AnomalyDae::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("AnomalyDAE requires node attributes");
  }
  obs::TrainingRun run("AnomalyDAE", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const int n = graph.num_nodes();
  const int d = graph.attribute_dim();
  fitted_num_nodes_ = n;
  structure_in_.emplace(d, config_.hidden_dim, &rng);
  structure_gat_ =
      std::make_unique<gnn::GatConv>(config_.hidden_dim, config_.hidden_dim,
                                     &rng);
  attribute_encoder_.emplace(
      std::vector<int>{n, config_.hidden_dim, config_.hidden_dim}, &rng);

  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable attr_target = Variable::Constant(graph.attributes());
  Variable adj_target = Variable::Constant(graph_ops::DenseAdjacency(graph));

  std::vector<Variable> params = structure_in_->Parameters();
  for (Variable& p : structure_gat_->Parameters()) {
    params.push_back(std::move(p));
  }
  for (Variable& p : attribute_encoder_->Parameters()) {
    params.push_back(std::move(p));
  }
  Adam optimizer(params, config_.lr);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Forward forward = RunForward(message_graph, graph.attributes());
    Variable attr_loss = ag::MeanAll(
        ag::RowSquaredDistance(forward.attribute_reconstruction, attr_target));
    Variable struct_loss = ag::MeanAll(
        ag::RowSquaredDistance(forward.structure_reconstruction, adj_target));
    Variable loss = ag::Add(ag::Scale(attr_loss, config_.eta),
                            ag::Scale(struct_loss, 1.0f - config_.eta));
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

DetectorOutput AnomalyDae::Score(const AttributedGraph& graph) const {
  VGOD_CHECK_EQ(graph.num_nodes(), fitted_num_nodes_)
      << "AnomalyDAE cannot score a different graph (non-inductive)";
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
    out.score[i] = config_.eta * out.contextual_score[i] +
                   (1.0f - config_.eta) * out.structural_score[i];
  }
  return out;
}

}  // namespace vgod::detectors
