#include "detectors/arm.h"

#include <algorithm>
#include <numeric>

#include "core/faultinject.h"
#include "detectors/divergence.h"
#include "graph/graph_ops.h"
#include "obs/profile.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {
namespace {

Tensor PrepareAttributes(const AttributedGraph& graph, bool row_normalize) {
  VGOD_CHECK(graph.has_attributes()) << "ARM requires node attributes";
  return row_normalize
             ? graph_ops::RowNormalizeAttributes(graph.attributes())
             : graph.attributes();
}

/// Rows per block of an incremental refresh's retransform (Eq. 16).
constexpr size_t kRetransformBlock = 64;

/// ARM's retained activations with a GAT backbone: each layer's node
/// projections s, p, q (the inputs of Eq. 3 that clean rows still read)
/// and the Eq. 17 errors.
struct ArmState final : ScoreState {
  std::vector<Tensor> s, p, q;  // One per GNN layer.
  std::vector<double> score;
};

}  // namespace

Arm::Arm(ArmConfig config) : config_(std::move(config)) {}

Variable Arm::Reconstruct(std::shared_ptr<const AttributedGraph> graph,
                          const Tensor& attributes) const {
  VGOD_CHECK(in_transform_.has_value()) << "Fit() before Score()";
  Variable x = Variable::Constant(attributes);
  // Eq. 14: Z^(0) = row-normalized linear transform.
  Variable z = ag::RowL2Normalize(in_transform_->Forward(x));
  // Eq. 15: L GNN layers absorbing neighbor messages.
  for (const auto& layer : layers_) {
    z = ag::Relu(layer->Forward(graph, z));
  }
  // Eq. 16: retransform to attribute space.
  return out_transform_->Forward(z);
}

std::vector<Variable> Arm::Parameters() const {
  std::vector<Variable> params = in_transform_->Parameters();
  for (const auto& layer : layers_) {
    for (Variable& p : layer->Parameters()) params.push_back(std::move(p));
  }
  for (Variable& p : out_transform_->Parameters()) {
    params.push_back(std::move(p));
  }
  return params;
}

void Arm::BuildModules(int input_dim, Rng* rng) {
  in_transform_.emplace(input_dim, config_.hidden_dim, rng);
  layers_.clear();
  for (int l = 0; l < config_.num_layers; ++l) {
    layers_.push_back(
        gnn::MakeConv(config_.gnn, config_.hidden_dim, config_.hidden_dim,
                      rng));
  }
  out_transform_.emplace(config_.hidden_dim, input_dim, rng);
}

Status Arm::Fit(const AttributedGraph& graph) {
  VGOD_MEMORY_PHASE("detector/arm_fit");
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("ARM requires node attributes");
  }
  obs::TrainingRun run("ARM", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const Tensor attributes =
      PrepareAttributes(graph, config_.row_normalize_attributes);
  BuildModules(attributes.cols(), &rng);

  // GCN/GAT aggregate over the given neighbor lists; self loops keep each
  // node's own signal in its reconstruction.
  auto message_graph =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable target = Variable::Constant(attributes);

  Adam optimizer(Parameters(), config_.lr);
  DivergenceGuard guard(Parameters());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    Variable reconstructed = Reconstruct(message_graph, attributes);
    // Eq. 17-18: minimize the mean per-node squared error.
    Variable loss =
        ag::MeanAll(ag::RowSquaredDistance(reconstructed, target));
    optimizer.ZeroGrad();
    loss.Backward();
    optimizer.Step();
    // "arm.loss=nan" (faultinject.h) simulates a diverged fit on demand.
    const double epoch_loss =
        faults::MaybeNan("arm.loss", loss.value().ScalarValue());
    const obs::EpochRecord record =
        run.EndEpoch(epoch + 1, epoch_loss, optimizer.GradNorm());
    const Status healthy = guard.Check(record);
    if (!healthy.ok()) {
      // Parameters are already rolled back to the last finite epoch.
      train_stats_.epochs = guard.last_good_epoch();
      train_stats_.train_seconds = run.TotalSeconds();
      return healthy;
    }
  }
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = run.TotalSeconds();
  return Status::Ok();
}

DetectorOutput Arm::Score(const AttributedGraph& graph) const {
  return ScoreIncremental(graph, nullptr, {}).output;
}

ScoreUpdate Arm::ScoreIncremental(const AttributedGraph& graph,
                                  const ScoreState* base,
                                  const ChangedRows& changed) const {
  VGOD_SCOPE("detector/arm_score");
  VGOD_CHECK(in_transform_.has_value()) << "Fit() before Score()";
  const int n = graph.num_nodes();
  ScoreUpdate update;
  if (config_.gnn != gnn::GnnKind::kGat) {
    // GCN's degree-normalized weights (and GIN/SAGE, not yet covered)
    // would widen the dirty set: these backbones always score in full.
    NoGradGuard no_grad;
    const Tensor attributes =
        PrepareAttributes(graph, config_.row_normalize_attributes);
    auto message_graph =
        std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
    const Tensor errors = kernels::RowSquaredDistance(
        Reconstruct(message_graph, attributes).value(), attributes);
    update.output.score.assign(errors.data(), errors.data() + n);
    update.output.contextual_score = update.output.score;
    update.dirty_rows = n;
    return update;
  }

  // Eq. 14 and each layer's projections are row-local; layer l aggregates
  // over the self-looped neighborhood. So the rows whose input to layer l
  // changed are D_0 = A and D_l = S + D_(l-1) + N(D_(l-1)), and Eq. 16-17
  // recompute the rows of D_L.
  const int num_layers = static_cast<int>(layers_.size());
  const auto* prior = dynamic_cast<const ArmState*>(base);
  std::vector<std::vector<int>> dirty;
  if (prior != nullptr && static_cast<int>(prior->score.size()) == n) {
    dirty.push_back(changed.attributes);
    for (int l = 0; l < num_layers; ++l) {
      dirty.push_back(UnionRows(changed.adjacency,
                                graph_ops::WithNeighbors(graph, dirty[l])));
    }
    update.incremental = static_cast<double>(dirty.back().size()) <=
                         kMaxIncrementalDirtyFraction * n;
  }
  const bool full = !update.incremental;
  const bool row_normalize = config_.row_normalize_attributes;
  auto state = std::make_shared<ArmState>();
  const Tensor x =
      full ? PrepareAttributes(graph, row_normalize)
           : PreparedAttributeRows(graph, dirty[0], row_normalize);
  Tensor z = kernels::RowL2Normalize(in_transform_->Apply(x));
  for (int l = 0; l < num_layers; ++l) {
    const auto* gat = dynamic_cast<const gnn::GatConv*>(layers_[l].get());
    VGOD_CHECK(gat != nullptr);
    gnn::GatConv::Projection proj = gat->Project(z);
    if (!full) {
      // Patch a private copy: the base state may be serving other rescores.
      gnn::GatConv::Projection patched{prior->s[l].Clone(),
                                       prior->p[l].Clone(),
                                       prior->q[l].Clone()};
      kernels::ScatterRows(proj.s, dirty[l], &patched.s);
      kernels::ScatterRows(proj.p, dirty[l], &patched.p);
      kernels::ScatterRows(proj.q, dirty[l], &patched.q);
      proj = std::move(patched);
    }
    const Tensor aggregated =
        full ? graph_ops::GatAggregate(graph, /*self_loop=*/true, proj.s,
                                       proj.p, proj.q, gat->negative_slope())
             : graph_ops::GatAggregateRows(graph, /*self_loop=*/true, proj.s,
                                           proj.p, proj.q,
                                           gat->negative_slope(),
                                           dirty[l + 1]);
    z = kernels::Relu(aggregated);
    state->s.push_back(proj.s);
    state->p.push_back(proj.p);
    state->q.push_back(proj.q);
  }
  if (full) {
    const Tensor errors =
        kernels::RowSquaredDistance(out_transform_->Apply(z), x);
    state->score.assign(errors.data(), errors.data() + n);
    update.dirty_rows = n;
  } else {
    // Eq. 16-17 for the rows of D_L, kRetransformBlock rows at a time: the
    // attribute-wide retransform is a refresh's largest allocation, and
    // blocks of one size recycle through the allocator instead of
    // fragmenting a long-running server's heap (measured as peak RSS).
    const std::vector<int>& rows = dirty.back();
    state->score = prior->score;
    for (size_t lo = 0; lo < rows.size(); lo += kRetransformBlock) {
      const size_t hi = std::min(rows.size(), lo + kRetransformBlock);
      const std::vector<int> block(rows.begin() + lo, rows.begin() + hi);
      std::vector<int> z_rows(hi - lo);
      std::iota(z_rows.begin(), z_rows.end(), static_cast<int>(lo));
      const Tensor errors = kernels::RowSquaredDistance(
          out_transform_->Apply(kernels::GatherRows(z, z_rows)),
          PreparedAttributeRows(graph, block, row_normalize));
      for (size_t k = 0; k < block.size(); ++k) {
        state->score[block[k]] = errors.data()[k];
      }
    }
    update.dirty_rows = static_cast<int>(rows.size());
  }
  update.output.score = state->score;
  update.output.contextual_score = state->score;
  update.state = std::move(state);
  return update;
}

Status Arm::RestoreParameters(const std::vector<Tensor>& tensors) {
  if (tensors.empty()) {
    return Status::InvalidArgument("ARM: empty parameter list");
  }
  // The first tensor is the input transform's d x hidden weight.
  const Tensor& weight = tensors[0];
  if (weight.cols() != config_.hidden_dim) {
    return Status::InvalidArgument(
        "stored hidden dim " + std::to_string(weight.cols()) +
        " != configured " + std::to_string(config_.hidden_dim));
  }
  Rng rng(config_.seed);
  BuildModules(weight.rows(), &rng);
  std::vector<Variable> params = Parameters();
  return AssignParameters(tensors, &params);
}

Result<ModelBundle> Arm::ExportBundle() const {
  if (!in_transform_.has_value()) {
    return Status::FailedPrecondition("Fit() before ExportBundle()");
  }
  ModelBundle bundle;
  bundle.detector = name();
  obs::JsonValue::Object config;
  config["hidden_dim"] =
      obs::JsonValue(static_cast<int64_t>(config_.hidden_dim));
  config["num_layers"] =
      obs::JsonValue(static_cast<int64_t>(config_.num_layers));
  config["gnn"] = obs::JsonValue(std::string(gnn::GnnKindName(config_.gnn)));
  config["row_normalize_attributes"] =
      obs::JsonValue(config_.row_normalize_attributes);
  bundle.config = obs::JsonValue(std::move(config));
  for (const Variable& param : Parameters()) {
    bundle.params.push_back(param.value().Clone());
  }
  return bundle;
}

Status Arm::RestoreFromBundle(const ModelBundle& bundle) {
  if (bundle.detector != name()) {
    return Status::InvalidArgument("bundle is for detector '" +
                                   bundle.detector + "', not " + name());
  }
  if (bundle.config.is_object()) {
    // Untrusted config: range-check before the double -> int casts (UB out
    // of range) and before BuildModules allocates num_layers hidden^2
    // tensors from these values.
    const double hidden =
        ConfigNumber(bundle.config, "hidden_dim", config_.hidden_dim);
    if (!(hidden >= 1.0 && hidden <= 65536.0)) {
      return Status::InvalidArgument(
          "bundle hidden_dim out of range [1, 65536]");
    }
    const double layers =
        ConfigNumber(bundle.config, "num_layers", config_.num_layers);
    if (!(layers >= 0.0 && layers <= 64.0)) {
      return Status::InvalidArgument(
          "bundle num_layers out of range [0, 64]");
    }
    config_.hidden_dim = static_cast<int>(hidden);
    config_.num_layers = static_cast<int>(layers);
    config_.row_normalize_attributes =
        ConfigBool(bundle.config, "row_normalize_attributes",
                   config_.row_normalize_attributes);
    const std::string gnn_name =
        ConfigString(bundle.config, "gnn", gnn::GnnKindName(config_.gnn));
    bool known = false;
    for (gnn::GnnKind kind : {gnn::GnnKind::kGcn, gnn::GnnKind::kGat,
                              gnn::GnnKind::kGin, gnn::GnnKind::kSage}) {
      if (gnn_name == gnn::GnnKindName(kind)) {
        config_.gnn = kind;
        known = true;
      }
    }
    if (!known) {
      return Status::InvalidArgument("unknown GNN backbone in bundle: " +
                                     gnn_name);
    }
  }
  return RestoreParameters(bundle.params);
}

}  // namespace vgod::detectors
