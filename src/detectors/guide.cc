#include "detectors/guide.h"

#include "graph/algorithms.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {

Guide::Guide(GuideConfig config) : config_(config) {}

Guide::Forward Guide::RunForward(std::shared_ptr<const AttributedGraph> graph,
                                 const Tensor& attributes,
                                 const Tensor& structure_features) const {
  Forward out;
  Variable x = Variable::Constant(attributes);
  Variable z = ag::Relu(attr_encoder_->Forward(graph, x));
  out.attribute_reconstruction = attr_decoder_->Forward(graph, z);

  Variable s = Variable::Constant(structure_features);
  Variable hs = struct_encoder_->Forward(s);
  out.structure_reconstruction = struct_decoder_->Forward(hs);
  return out;
}

Status Guide::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("GUIDE requires node attributes");
  }
  obs::TrainingRun run("GUIDE", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const int d = graph.attribute_dim();
  attr_encoder_ = std::make_unique<gnn::GcnConv>(d, config_.hidden_dim, &rng);
  attr_decoder_ = std::make_unique<gnn::GcnConv>(config_.hidden_dim, d, &rng);
  const Tensor structure_features =
      graph_algorithms::StructuralFeatureMatrix(graph);
  struct_encoder_.emplace(
      std::vector<int>{structure_features.cols(), config_.hidden_dim}, &rng);
  struct_decoder_.emplace(config_.hidden_dim, structure_features.cols(),
                          &rng);

  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable attr_target = Variable::Constant(graph.attributes());
  Variable struct_target = Variable::Constant(structure_features);

  std::vector<Variable> params = attr_encoder_->Parameters();
  for (auto* module :
       std::initializer_list<nn::Module*>{&*attr_decoder_, &*struct_encoder_,
                                          &*struct_decoder_}) {
    for (Variable& p : module->Parameters()) params.push_back(std::move(p));
  }
  Adam optimizer(params, config_.lr);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Forward forward =
        RunForward(message_graph, graph.attributes(), structure_features);
    Variable attr_loss = ag::MeanAll(
        ag::RowSquaredDistance(forward.attribute_reconstruction, attr_target));
    Variable struct_loss = ag::MeanAll(ag::RowSquaredDistance(
        forward.structure_reconstruction, struct_target));
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

DetectorOutput Guide::Score(const AttributedGraph& graph) const {
  NoGradGuard no_grad;
  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  const Tensor structure_features =
      graph_algorithms::StructuralFeatureMatrix(graph);
  Forward forward =
      RunForward(message_graph, graph.attributes(), structure_features);
  Variable attr_errors =
      ag::RowSquaredDistance(forward.attribute_reconstruction,
                             Variable::Constant(graph.attributes()));
  Variable struct_errors =
      ag::RowSquaredDistance(forward.structure_reconstruction,
                             Variable::Constant(structure_features));

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
