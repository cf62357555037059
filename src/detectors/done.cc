#include "detectors/done.h"

#include <cmath>

#include "eval/metrics.h"
#include "gnn/graph_autograd.h"
#include "graph/graph_ops.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {
namespace {

/// Sum-to-unit probabilities from raw non-negative errors; a floor keeps
/// log(1/o) finite.
std::vector<double> ErrorProbabilities(const Variable& errors) {
  std::vector<double> raw(errors.rows());
  for (int i = 0; i < errors.rows(); ++i) {
    raw[i] = std::max(0.0f, errors.value().At(i, 0));
  }
  std::vector<double> probs = eval::SumToUnitNormalize(raw);
  for (double& p : probs) p = std::max(p, 1e-12);
  return probs;
}

Tensor LogInverseWeights(const std::vector<double>& probs) {
  Tensor out(static_cast<int>(probs.size()), 1);
  for (size_t i = 0; i < probs.size(); ++i) {
    out.SetAt(static_cast<int>(i), 0,
              static_cast<float>(std::log(1.0 / probs[i])));
  }
  return out;
}

}  // namespace

Done::Done(DoneConfig config) : config_(config) {}

Done::ErrorTerms Done::ComputeErrors(const AttributedGraph& graph,
                                     const Tensor& attributes,
                                     const Tensor& adjacency) const {
  auto shared_graph = std::make_shared<const AttributedGraph>(graph);
  Variable adjacency_rows = Variable::Constant(adjacency);
  Variable x = Variable::Constant(attributes);

  Variable hs = ag::Relu(structure_encoder_->Forward(adjacency_rows));
  Variable ha = ag::Relu(attribute_encoder_->Forward(x));
  Variable adjacency_hat = structure_decoder_->Forward(hs);
  Variable x_hat = attribute_decoder_->Forward(ha);

  ErrorTerms out;
  // Reconstruction terms.
  out.terms[0] = ag::RowSquaredDistance(adjacency_hat, adjacency_rows);
  out.terms[1] = ag::RowSquaredDistance(x_hat, x);
  // Homophily terms: embeddings should match the neighborhood mean.
  out.terms[2] =
      ag::RowSquaredDistance(hs, ag::NeighborMean(shared_graph, hs));
  out.terms[3] =
      ag::RowSquaredDistance(ha, ag::NeighborMean(shared_graph, ha));
  // Cross-modality agreement.
  out.terms[4] = ag::RowSquaredDistance(hs, ha);
  return out;
}

Status Done::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("DONE requires node attributes");
  }
  obs::TrainingRun run("DONE", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const int n = graph.num_nodes();
  const int d = graph.attribute_dim();
  fitted_num_nodes_ = n;
  structure_encoder_.emplace(n, config_.hidden_dim, &rng);
  structure_decoder_.emplace(config_.hidden_dim, n, &rng);
  attribute_encoder_.emplace(d, config_.hidden_dim, &rng);
  attribute_decoder_.emplace(config_.hidden_dim, d, &rng);

  const Tensor adjacency = graph_ops::DenseAdjacency(graph);

  std::vector<Variable> params = structure_encoder_->Parameters();
  for (auto* module : {&*structure_decoder_, &*attribute_encoder_,
                       &*attribute_decoder_}) {
    for (Variable& p : module->Parameters()) params.push_back(std::move(p));
  }
  Adam optimizer(params, config_.lr);

  // log(1/o_i) weights, refreshed from the previous epoch's errors
  // (alternating minimization over o and the network parameters).
  std::vector<Tensor> weights(kNumTerms, Tensor::Ones(n, 1));
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    ErrorTerms errors = ComputeErrors(graph, graph.attributes(), adjacency);
    Variable loss;
    for (int k = 0; k < kNumTerms; ++k) {
      Variable weighted =
          ag::MeanAll(ag::Mul(errors.terms[k],
                              Variable::Constant(weights[k])));
      loss = loss.defined() ? ag::Add(loss, weighted) : weighted;
    }
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    for (int k = 0; k < kNumTerms; ++k) {
      weights[k] = LogInverseWeights(ErrorProbabilities(errors.terms[k]));
    }
    run.EndEpoch(epoch + 1, loss.value().ScalarValue(),
                 optimizer.GradNorm());
  }
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = run.TotalSeconds();
  return Status::Ok();
}

DetectorOutput Done::Score(const AttributedGraph& graph) const {
  VGOD_CHECK_EQ(graph.num_nodes(), fitted_num_nodes_)
      << "DONE's structure AE is sized to its training graph";
  NoGradGuard no_grad;
  ErrorTerms errors = ComputeErrors(graph, graph.attributes(),
                                    graph_ops::DenseAdjacency(graph));
  const int n = graph.num_nodes();
  DetectorOutput out;
  out.score.assign(n, 0.0);
  out.structural_score.assign(n, 0.0);
  out.contextual_score.assign(n, 0.0);
  for (int k = 0; k < kNumTerms; ++k) {
    const std::vector<double> probs = ErrorProbabilities(errors.terms[k]);
    for (int i = 0; i < n; ++i) {
      out.score[i] += probs[i] / kNumTerms;
      // Terms 0 and 2 read the topology; 1 and 3 the attributes; term 4
      // couples both and contributes to neither component score.
      if (k == 0 || k == 2) out.structural_score[i] += probs[i] / 2.0;
      if (k == 1 || k == 3) out.contextual_score[i] += probs[i] / 2.0;
    }
  }
  return out;
}

}  // namespace vgod::detectors
