#include "detectors/vbm.h"

#include <numeric>
#include <unordered_map>
#include <unordered_set>

#include "core/faultinject.h"
#include "detectors/divergence.h"
#include "gnn/graph_autograd.h"
#include "graph/graph_ops.h"
#include "graph/sampling.h"
#include "obs/profile.h"
#include "tensor/functional.h"
#include "tensor/kernels.h"

namespace vgod::detectors {
namespace {

Tensor PrepareAttributes(const AttributedGraph& graph, bool row_normalize) {
  VGOD_CHECK(graph.has_attributes()) << "VBM requires node attributes";
  return row_normalize
             ? graph_ops::RowNormalizeAttributes(graph.attributes())
             : graph.attributes();
}

/// VBM's retained activations: every node's Eq. 6 embedding and its
/// neighbor-variance score.
struct VbmState final : ScoreState {
  Tensor h;
  std::vector<double> score;
};

}  // namespace

Vbm::Vbm(VbmConfig config) : config_(std::move(config)) {}

Variable Vbm::Embed(const Tensor& attributes) const {
  VGOD_CHECK(transform_.has_value()) << "Fit() before Score()";
  Variable x = Variable::Constant(attributes);
  return ag::RowL2Normalize(transform_->Forward(x));
}

Tensor Vbm::EmbedPrepared(const Tensor& prepared) const {
  VGOD_CHECK(transform_.has_value()) << "Fit() before Score()";
  return kernels::RowL2Normalize(transform_->Apply(prepared));
}

Result<Tensor> Vbm::EmbedRows(const Tensor& attributes) const {
  if (!transform_.has_value()) {
    return Status::FailedPrecondition("VBM is not fitted");
  }
  if (attributes.cols() != transform_->in_features()) {
    return Status::InvalidArgument(
        "attribute dim " + std::to_string(attributes.cols()) +
        " does not match the fitted model's " +
        std::to_string(transform_->in_features()));
  }
  return EmbedPrepared(config_.row_normalize_attributes
                           ? graph_ops::RowNormalizeAttributes(attributes)
                           : attributes);
}

double Vbm::RunMiniBatchEpoch(const AttributedGraph& graph,
                              const Tensor& attributes, Optimizer* optimizer,
                              Rng* rng) const {
  const int n = graph.num_nodes();
  double loss_sum = 0.0;
  int batches = 0;
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng->Shuffle(&order);

  for (int begin = 0; begin < n; begin += config_.batch_size) {
    const int end = std::min(n, begin + config_.batch_size);

    // Assemble the batch's support set: each seed node, its (sampled)
    // neighbors including the optional self loop, and freshly sampled
    // negative neighbors. Rows outside the support never enter the step.
    std::unordered_map<int, int> local_id;
    std::vector<int> support;
    auto localize = [&](int global) {
      auto [it, inserted] =
          local_id.emplace(global, static_cast<int>(support.size()));
      if (inserted) support.push_back(global);
      return it->second;
    };

    // Per-seed positive and negative neighbor lists in local ids.
    std::vector<std::vector<int>> positive_neighbors;
    std::vector<std::vector<int>> negative_neighbors;
    for (int b = begin; b < end; ++b) {
      const int seed_node = order[b];
      const int seed_local = localize(seed_node);
      auto neighbors = graph.Neighbors(seed_node);
      std::vector<int> pos;
      if (config_.max_neighbors_per_node > 0 &&
          static_cast<int>(neighbors.size()) >
              config_.max_neighbors_per_node) {
        // GraphSAGE-style neighbor sampling.
        std::vector<int> picks = rng->SampleWithoutReplacement(
            static_cast<int>(neighbors.size()),
            config_.max_neighbors_per_node);
        for (int pick : picks) pos.push_back(localize(neighbors[pick]));
      } else {
        for (int32_t v : neighbors) pos.push_back(localize(v));
      }
      if (config_.self_loop) pos.push_back(seed_local);
      // Negative neighbors: uniform non-neighbors, same count (Def. 3).
      std::unordered_set<int> forbidden(neighbors.begin(), neighbors.end());
      forbidden.insert(seed_node);
      std::vector<int> neg;
      const int want = std::min<int>(pos.size(),
                                     n - static_cast<int>(forbidden.size()));
      std::unordered_set<int> chosen;
      while (static_cast<int>(neg.size()) < want) {
        const int candidate = static_cast<int>(rng->UniformInt(n));
        if (forbidden.count(candidate) || !chosen.insert(candidate).second) {
          continue;
        }
        neg.push_back(localize(candidate));
      }
      positive_neighbors.push_back(std::move(pos));
      negative_neighbors.push_back(std::move(neg));
    }

    // Local graphs over the support rows (directed: seeds own neighbors).
    const int batch_nodes = end - begin;
    auto build_local = [&](const std::vector<std::vector<int>>& lists) {
      GraphBuilder builder(static_cast<int>(support.size()));
      builder.SetUndirected(false).SetKeepSelfLoops(true);
      for (int b = 0; b < batch_nodes; ++b) {
        // Seed b's local id is its first localize() call order; recompute:
        const int seed_local = local_id.at(order[begin + b]);
        for (int neighbor : lists[b]) builder.AddEdge(seed_local, neighbor);
      }
      Result<AttributedGraph> built = builder.Build();
      VGOD_CHECK(built.ok()) << built.status().ToString();
      return std::make_shared<const AttributedGraph>(
          std::move(built).value());
    };
    auto positive_graph = build_local(positive_neighbors);
    auto negative_graph = build_local(negative_neighbors);

    // Embed only the support rows.
    Variable x_sub = ag::GatherRows(Variable::Constant(attributes), support);
    Variable h = ag::RowL2Normalize(transform_->Forward(x_sub));
    Variable loss =
        ag::Sub(ag::MeanAll(ag::NeighborVarianceScore(positive_graph, h)),
                ag::MeanAll(ag::NeighborVarianceScore(negative_graph, h)));
    optimizer->ZeroGrad();
    loss.Backward();
    optimizer->Step();
    loss_sum += loss.value().ScalarValue();
    ++batches;
  }
  return batches > 0 ? loss_sum / batches : 0.0;
}

Status Vbm::Fit(const AttributedGraph& graph) {
  VGOD_MEMORY_PHASE("detector/vbm_fit");
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("VBM requires node attributes");
  }
  obs::TrainingRun run("VBM", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const Tensor attributes =
      PrepareAttributes(graph, config_.row_normalize_attributes);
  transform_.emplace(attributes.cols(), config_.hidden_dim, &rng);

  // Positive graph: the real topology (optionally with self loops, Eq. 13).
  auto positive = std::make_shared<const AttributedGraph>(
      config_.self_loop ? graph.WithSelfLoops() : graph);

  Adam optimizer(transform_->Parameters(), config_.lr);
  DivergenceGuard guard(transform_->Parameters());
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    double epoch_loss = 0.0;
    if (config_.batch_size > 0) {
      epoch_loss = RunMiniBatchEpoch(graph, attributes, &optimizer, &rng);
    } else {
      // Fresh negative network each epoch (paper Algorithm 1, line 3).
      auto negative = std::make_shared<const AttributedGraph>(
          BuildNegativeGraph(graph, &rng));

      Variable h = Embed(attributes);
      Variable positive_loss =
          ag::MeanAll(ag::NeighborVarianceScore(positive, h));
      Variable negative_loss =
          ag::MeanAll(ag::NeighborVarianceScore(negative, h));
      // Eq. 11: contrast real neighborhoods (minimize variance) against
      // sampled ones (maximize variance).
      Variable loss = ag::Sub(positive_loss, negative_loss);

      optimizer.ZeroGrad();
      loss.Backward();
      optimizer.Step();
      epoch_loss = loss.value().ScalarValue();
    }

    // "vbm.loss=nan" (faultinject.h) simulates the diverged fit the guard
    // below must absorb.
    epoch_loss = faults::MaybeNan("vbm.loss", epoch_loss);
    const obs::EpochRecord record =
        run.EndEpoch(epoch + 1, epoch_loss, optimizer.GradNorm());
    const Status healthy = guard.Check(record);
    if (!healthy.ok()) {
      // The guard already rolled the transform back to the last finite
      // epoch, so this model can still Score; report how far it got.
      train_stats_.epochs = guard.last_good_epoch();
      train_stats_.train_seconds = run.TotalSeconds();
      return healthy;
    }
    if (run.wants_scores()) {
      run.ProbeScores(epoch + 1, Score(graph).score);
    }
  }
  train_stats_.epochs = config_.epochs;
  train_stats_.train_seconds = run.TotalSeconds();
  return Status::Ok();
}

DetectorOutput Vbm::Score(const AttributedGraph& graph) const {
  return ScoreIncremental(graph, nullptr, {}).output;
}

ScoreUpdate Vbm::ScoreIncremental(const AttributedGraph& graph,
                                  const ScoreState* base,
                                  const ChangedRows& changed) const {
  VGOD_SCOPE("detector/vbm_score");
  const int n = graph.num_nodes();
  const auto* prior = dynamic_cast<const VbmState*>(base);
  // Eq. 6 is row-local, so only the rows in A re-embed. Eq. 7-9 read h
  // over a row's neighborhood, so a re-embedded row dirties its
  // neighbors' scores (and, with the Eq. 13 self loop, its own), and an
  // edge toggle its endpoints'. Recomputed: S + A + N(A).
  std::vector<int> rows;
  ScoreUpdate update;
  if (prior != nullptr && prior->h.rows() == n) {
    rows = UnionRows(changed.adjacency,
                     graph_ops::WithNeighbors(graph, changed.attributes));
    update.incremental =
        static_cast<double>(rows.size()) <= kMaxIncrementalDirtyFraction * n;
  }
  auto state = std::make_shared<VbmState>();
  if (update.incremental) {
    state->h = prior->h.Clone();
    state->score = prior->score;
    if (!changed.attributes.empty()) {
      kernels::ScatterRows(
          EmbedPrepared(PreparedAttributeRows(
              graph, changed.attributes, config_.row_normalize_attributes)),
          changed.attributes, &state->h);
    }
    const Tensor variance = graph_ops::NeighborVarianceScoreRows(
        graph, state->h, config_.self_loop, rows);
    for (size_t k = 0; k < rows.size(); ++k) {
      state->score[rows[k]] = variance.data()[k];
    }
    update.dirty_rows = static_cast<int>(rows.size());
  } else {
    state->h = EmbedPrepared(
        PrepareAttributes(graph, config_.row_normalize_attributes));
    const Tensor variance =
        graph_ops::NeighborVarianceScore(graph, state->h, config_.self_loop);
    state->score.assign(variance.data(), variance.data() + n);
    update.dirty_rows = n;
  }
  update.output.score = state->score;
  update.output.structural_score = state->score;
  update.state = std::move(state);
  return update;
}

Status Vbm::RestoreParameters(const std::vector<Tensor>& tensors) {
  if (tensors.empty()) {
    return Status::InvalidArgument("VBM: empty parameter list");
  }
  const Tensor& weight = tensors[0];
  if (weight.cols() != config_.hidden_dim) {
    return Status::InvalidArgument(
        "stored hidden dim " + std::to_string(weight.cols()) +
        " != configured " + std::to_string(config_.hidden_dim));
  }
  Rng rng(config_.seed);
  transform_.emplace(weight.rows(), config_.hidden_dim, &rng);
  std::vector<Variable> params = transform_->Parameters();
  return AssignParameters(tensors, &params);
}

Result<ModelBundle> Vbm::ExportBundle() const {
  if (!transform_.has_value()) {
    return Status::FailedPrecondition("Fit() before ExportBundle()");
  }
  ModelBundle bundle;
  bundle.detector = name();
  obs::JsonValue::Object config;
  config["hidden_dim"] =
      obs::JsonValue(static_cast<int64_t>(config_.hidden_dim));
  config["self_loop"] = obs::JsonValue(config_.self_loop);
  config["row_normalize_attributes"] =
      obs::JsonValue(config_.row_normalize_attributes);
  bundle.config = obs::JsonValue(std::move(config));
  for (const Variable& param : transform_->Parameters()) {
    bundle.params.push_back(param.value().Clone());
  }
  return bundle;
}

Status Vbm::RestoreFromBundle(const ModelBundle& bundle) {
  if (bundle.detector != name()) {
    return Status::InvalidArgument("bundle is for detector '" +
                                   bundle.detector + "', not " + name());
  }
  if (bundle.config.is_object()) {
    // The config travels inside the (untrusted) bundle file: validate the
    // range before the double -> int cast, which is UB out of range, and
    // before any allocation sized by it.
    const double hidden =
        ConfigNumber(bundle.config, "hidden_dim", config_.hidden_dim);
    if (!(hidden >= 1.0 && hidden <= 65536.0)) {
      return Status::InvalidArgument(
          "bundle hidden_dim out of range [1, 65536]");
    }
    config_.hidden_dim = static_cast<int>(hidden);
    config_.self_loop =
        ConfigBool(bundle.config, "self_loop", config_.self_loop);
    config_.row_normalize_attributes =
        ConfigBool(bundle.config, "row_normalize_attributes",
                   config_.row_normalize_attributes);
  }
  return RestoreParameters(bundle.params);
}

}  // namespace vgod::detectors
