#include "detectors/nondeep.h"

#include "core/rng.h"
#include "tensor/functional.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {
namespace {

/// Smooth L2,1 norm: sum_i sqrt(||row_i||^2 + eps).
Variable L21Norm(const Variable& m) {
  return ag::SumAll(ag::Sqrt(ag::RowSums(ag::Square(m))));
}

/// tr(R^T L R) = sum over undirected edges ||r_u - r_v||^2.
Variable LaplacianSmoothness(const Variable& residual,
                             const AttributedGraph& graph) {
  std::vector<int> sources, targets;
  sources.reserve(graph.num_directed_edges() / 2);
  targets.reserve(graph.num_directed_edges() / 2);
  for (const auto& [u, v] : graph.UndirectedEdgeList()) {
    sources.push_back(u);
    targets.push_back(v);
  }
  if (sources.empty()) return Variable::Constant(Tensor::Zeros(1, 1));
  Variable ru = ag::GatherRows(residual, std::move(sources));
  Variable rv = ag::GatherRows(residual, std::move(targets));
  return ag::SumAll(ag::RowSquaredDistance(ru, rv));
}

std::vector<double> ResidualRowNorms(const Variable& residual) {
  const Tensor norms = kernels::RowNorms(residual.value());
  std::vector<double> out(norms.rows());
  for (int i = 0; i < norms.rows(); ++i) out[i] = norms.At(i, 0);
  return out;
}

/// Runs Adam on `loss_fn` over `params`, normalizing loss terms by the
/// number of nodes to make the hyperparameters scale-free. Records one
/// EpochRecord per epoch into `stats` and returns the total wall time.
template <typename LossFn>
double Optimize(const std::string& detector,
                const ResidualAnalysisConfig& config, TrainStats* stats,
                std::vector<Variable> params, LossFn loss_fn) {
  obs::TrainingRun run(detector, config.epochs, config.monitor,
                       &stats->epoch_records);
  Adam optimizer(params, config.lr);
  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    Variable loss = loss_fn();
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    run.EndEpoch(epoch + 1, loss.value().ScalarValue(),
                 optimizer.GradNorm());
  }
  return run.TotalSeconds();
}

}  // namespace

Radar::Radar(ResidualAnalysisConfig config) : config_(config) {}

Status Radar::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("Radar requires node attributes");
  }
  const int n = graph.num_nodes();
  const float inv_n = 1.0f / static_cast<float>(n);
  Variable x = Variable::Constant(graph.attributes());
  Rng rng(config_.seed);
  // W starts near zero so the initial reconstruction is the residual
  // itself; R starts at X (fully unexplained), matching the alternating
  // scheme's initialization.
  Variable w = Variable::Parameter(
      Tensor::RandomNormal(n, n, 0.0f, 0.01f, &rng));
  Variable r = Variable::Parameter(graph.attributes().Clone());

  const double seconds = Optimize(name(), config_, &train_stats_, {w, r},
                                  [&]() {
    Variable reconstruction = ag::Add(ag::MatMul(w, x), r);
    Variable fit = ag::SumAll(ag::RowSquaredDistance(reconstruction, x));
    Variable loss = ag::Scale(fit, inv_n);
    loss = ag::Add(loss, ag::Scale(L21Norm(w), config_.alpha * inv_n));
    loss = ag::Add(loss, ag::Scale(L21Norm(r), config_.beta * inv_n));
    loss = ag::Add(loss, ag::Scale(LaplacianSmoothness(r, graph),
                                   config_.gamma * inv_n));
    return loss;
  });

  scores_ = ResidualRowNorms(r);
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = seconds;
  return Status::Ok();
}

DetectorOutput Radar::Score(const AttributedGraph& graph) const {
  VGOD_CHECK_EQ(graph.num_nodes(), static_cast<int>(scores_.size()))
      << "Radar's coefficient matrix is tied to its training graph "
         "(non-inductive)";
  DetectorOutput out;
  out.score = scores_;
  return out;
}

Anomalous::Anomalous(ResidualAnalysisConfig config) : config_(config) {}

Status Anomalous::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("ANOMALOUS requires node attributes");
  }
  const int n = graph.num_nodes();
  const int d = graph.attribute_dim();
  const float inv_n = 1.0f / static_cast<float>(n);
  Variable x = Variable::Constant(graph.attributes());
  Rng rng(config_.seed);
  Variable w = Variable::Parameter(
      Tensor::RandomNormal(d, d, 0.0f, 0.01f, &rng));
  Variable r = Variable::Parameter(graph.attributes().Clone());

  const double seconds = Optimize(name(), config_, &train_stats_, {w, r},
                                  [&]() {
    Variable reconstruction = ag::Add(ag::MatMul(x, w), r);
    Variable fit = ag::SumAll(ag::RowSquaredDistance(reconstruction, x));
    Variable loss = ag::Scale(fit, inv_n);
    // Column sparsity in attribute space = row sparsity of W here
    // (attribute selection).
    loss = ag::Add(loss, ag::Scale(L21Norm(w), config_.alpha));
    loss = ag::Add(loss, ag::Scale(L21Norm(r), config_.beta * inv_n));
    loss = ag::Add(loss, ag::Scale(LaplacianSmoothness(r, graph),
                                   config_.gamma * inv_n));
    return loss;
  });

  scores_ = ResidualRowNorms(r);
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = seconds;
  return Status::Ok();
}

DetectorOutput Anomalous::Score(const AttributedGraph& graph) const {
  VGOD_CHECK_EQ(graph.num_nodes(), static_cast<int>(scores_.size()))
      << "ANOMALOUS is tied to its training graph (non-inductive)";
  DetectorOutput out;
  out.score = scores_;
  return out;
}

}  // namespace vgod::detectors
