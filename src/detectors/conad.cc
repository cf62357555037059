#include "detectors/conad.h"

#include <algorithm>

#include "graph/graph_ops.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {

Conad::Conad(ConadConfig config) : config_(config) {}

Conad::AugmentedView Conad::Augment(const AttributedGraph& graph,
                                    Rng* rng) const {
  const int n = graph.num_nodes();
  const int num_pseudo =
      std::max(1, static_cast<int>(n * config_.augmentation_rate));
  std::vector<int> chosen = rng->SampleWithoutReplacement(n, num_pseudo);
  std::vector<uint8_t> pseudo(n, 0);
  std::vector<uint8_t> drop_edges(n, 0);

  Tensor attrs = graph.attributes().Clone();
  const int d = attrs.cols();
  std::vector<std::pair<int, int>> extra_edges;
  for (int node : chosen) {
    pseudo[node] = 1;
    switch (rng->UniformInt(4)) {
      case 0: {
        // High-degree: wire the node to a batch of random others.
        const int burst = 10 + static_cast<int>(rng->UniformInt(6));
        for (int t = 0; t < burst; ++t) {
          const int other = static_cast<int>(rng->UniformInt(n));
          if (other != node) extra_edges.emplace_back(node, other);
        }
        break;
      }
      case 1:
        // Outlying: drop the node's edges.
        drop_edges[node] = 1;
        break;
      case 2: {
        // Deviated attributes: swap in a random other node's vector plus
        // noise.
        const int other = static_cast<int>(rng->UniformInt(n));
        const float* src = graph.attributes().data() +
                           static_cast<size_t>(other) * d;
        float* dst = attrs.data() + static_cast<size_t>(node) * d;
        for (int j = 0; j < d; ++j) {
          dst[j] = src[j] + static_cast<float>(rng->Normal(0.0, 0.5));
        }
        break;
      }
      default: {
        // Disproportionate: scale the attribute vector up or down sharply.
        const float factor = rng->Bernoulli(0.5) ? 10.0f : 0.1f;
        float* dst = attrs.data() + static_cast<size_t>(node) * d;
        for (int j = 0; j < d; ++j) dst[j] *= factor;
        break;
      }
    }
  }

  GraphBuilder builder(n);
  for (const auto& [u, v] : graph.UndirectedEdgeList()) {
    if (drop_edges[u] || drop_edges[v]) continue;
    builder.AddEdge(u, v);
  }
  for (const auto& [u, v] : extra_edges) builder.AddEdge(u, v);
  builder.SetAttributes(std::move(attrs));
  Result<AttributedGraph> built = builder.Build();
  VGOD_CHECK(built.ok()) << built.status().ToString();
  return AugmentedView{std::move(built).value(), std::move(pseudo)};
}

Variable Conad::Encode(std::shared_ptr<const AttributedGraph> graph,
                       const Tensor& attributes) const {
  Variable z = ag::Relu(
      encoder1_->Forward(graph, Variable::Constant(attributes)));
  return ag::Relu(encoder2_->Forward(graph, z));
}

Status Conad::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("CONAD requires node attributes");
  }
  obs::TrainingRun run("CONAD", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  const int n = graph.num_nodes();
  const int d = graph.attribute_dim();
  encoder1_ = std::make_unique<gnn::GcnConv>(d, config_.hidden_dim, &rng);
  encoder2_ = std::make_unique<gnn::GcnConv>(config_.hidden_dim,
                                             config_.hidden_dim, &rng);
  attribute_decoder_ =
      std::make_unique<gnn::GcnConv>(config_.hidden_dim, d, &rng);

  auto original =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable attr_target = Variable::Constant(graph.attributes());
  Variable adj_target = Variable::Constant(graph_ops::DenseAdjacency(graph));

  std::vector<Variable> params = encoder1_->Parameters();
  for (Variable& p : encoder2_->Parameters()) params.push_back(std::move(p));
  for (Variable& p : attribute_decoder_->Parameters()) {
    params.push_back(std::move(p));
  }
  Adam optimizer(params, config_.lr);

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    AugmentedView view = Augment(graph, &rng);
    auto augmented =
        std::make_shared<const AttributedGraph>(view.graph.WithSelfLoops());

    Variable z = Encode(original, graph.attributes());
    Variable z_aug = Encode(augmented, view.graph.attributes());

    // Siamese contrastive term: agreement for untouched nodes, a margin
    // hinge pushing pseudo-anomalies apart.
    Variable distance = ag::RowSquaredDistance(z, z_aug);
    Tensor normal_mask(n, 1);
    Tensor pseudo_mask(n, 1);
    int num_pseudo = 0;
    for (int i = 0; i < n; ++i) {
      normal_mask.SetAt(i, 0, view.pseudo_anomaly[i] ? 0.0f : 1.0f);
      pseudo_mask.SetAt(i, 0, view.pseudo_anomaly[i] ? 1.0f : 0.0f);
      num_pseudo += view.pseudo_anomaly[i];
    }
    Variable agree = ag::SumAll(
        ag::Mul(distance, Variable::Constant(normal_mask)));
    Variable repel = ag::SumAll(ag::Mul(
        ag::Relu(ag::Sub(
            Variable::Constant(Tensor::Full(n, 1, config_.margin)), distance)),
        Variable::Constant(pseudo_mask)));
    Variable contrast =
        ag::Add(ag::Scale(agree, 1.0f / std::max(1, n - num_pseudo)),
                ag::Scale(repel, 1.0f / std::max(1, num_pseudo)));

    // Reconstruction term on the original view (also the scoring path).
    Variable x_hat = attribute_decoder_->Forward(original, z);
    Variable a_hat = ag::Sigmoid(ag::MatMulNT(z, z));
    Variable recon =
        ag::Add(ag::MeanAll(ag::RowSquaredDistance(x_hat, attr_target)),
                ag::MeanAll(ag::RowSquaredDistance(a_hat, adj_target)));

    Variable loss = ag::Add(ag::Scale(contrast, config_.eta),
                            ag::Scale(recon, 1.0f - config_.eta));
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

DetectorOutput Conad::Score(const AttributedGraph& graph) const {
  NoGradGuard no_grad;
  auto original =
      std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
  Variable z = Encode(original, graph.attributes());
  Variable x_hat = attribute_decoder_->Forward(original, z);
  Variable a_hat = ag::Sigmoid(ag::MatMulNT(z, z));
  Variable attr_errors = ag::RowSquaredDistance(
      x_hat, Variable::Constant(graph.attributes()));
  Variable struct_errors = ag::RowSquaredDistance(
      a_hat, Variable::Constant(graph_ops::DenseAdjacency(graph)));

  DetectorOutput out;
  const int n = graph.num_nodes();
  out.score.resize(n);
  out.structural_score.resize(n);
  out.contextual_score.resize(n);
  for (int i = 0; i < n; ++i) {
    out.contextual_score[i] = attr_errors.value().At(i, 0);
    out.structural_score[i] = struct_errors.value().At(i, 0);
    out.score[i] = 0.5 * (out.contextual_score[i] + out.structural_score[i]);
  }
  return out;
}

}  // namespace vgod::detectors
