#include "detectors/cola.h"

#include <numeric>

#include "gnn/graph_autograd.h"
#include "graph/graph_ops.h"
#include "tensor/kernels.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {

Cola::Cola(ColaConfig config) : config_(config) {}

Cola::RoundOutput Cola::RunRound(const AttributedGraph& graph,
                                 Rng* rng) const {
  const int n = graph.num_nodes();
  const int c = config_.subgraph_size;

  // One random-walk subgraph per node; the target node is row 0 of its
  // group and its attribute row is masked (anonymized) in the batch.
  std::vector<std::vector<int>> groups(n);
  for (int i = 0; i < n; ++i) groups[i] = RandomWalk(graph, i, c - 1, rng);
  BlockDiagonalBatch batch = MakeBlockDiagonalBatch(graph, groups);
  const int d = graph.attribute_dim();
  Tensor batch_attrs = batch.graph.attributes().Clone();
  for (int g = 0; g < n; ++g) {
    float* row =
        batch_attrs.data() + static_cast<size_t>(batch.group_offsets[g]) * d;
    std::fill(row, row + d, 0.0f);
  }

  // Shared one-layer GCN over the batched subgraphs.
  AttributedGraph batch_sl = batch.graph.WithSelfLoops();
  batch_sl.SetAttributes(batch_attrs);
  auto shared_batch = std::make_shared<const AttributedGraph>(batch_sl);
  Variable h = ag::Relu(
      ag::Spmm(shared_batch, graph_ops::GcnNormWeights(*shared_batch),
               embed_->Forward(Variable::Constant(batch_attrs))));

  // Per-subgraph readout (mean over the group's rows).
  std::vector<int> offsets = batch.group_offsets;
  offsets.push_back(batch.graph.num_nodes());
  Variable readout = ag::SegmentMeanRows(h, std::move(offsets));

  // Target embeddings: the shared weight applied to the *unmasked* raw
  // attributes (no aggregation — the node is judged against its context).
  Variable target = ag::Relu(
      embed_->Forward(Variable::Constant(graph.attributes())));
  Variable transformed = discriminator_->Forward(target);

  // Positive: own subgraph. Negative: another node's subgraph (cyclic
  // shift keeps exactly one negative per target).
  const int shift = 1 + static_cast<int>(rng->UniformInt(n - 1));
  std::vector<int> shifted(n);
  for (int i = 0; i < n; ++i) shifted[i] = (i + shift) % n;
  Variable negative_readout = ag::GatherRows(readout, std::move(shifted));

  RoundOutput out;
  out.positive_logits = ag::RowSums(ag::Mul(transformed, readout));
  out.negative_logits = ag::RowSums(ag::Mul(transformed, negative_readout));
  return out;
}

Status Cola::Fit(const AttributedGraph& graph) {
  if (!graph.has_attributes()) {
    return Status::FailedPrecondition("CoLA requires node attributes");
  }
  if (graph.num_nodes() < 2) {
    return Status::InvalidArgument("CoLA needs at least two nodes");
  }
  obs::TrainingRun run("CoLA", config_.epochs, config_.monitor,
                       &train_stats_.epoch_records);
  Rng rng(config_.seed);
  embed_.emplace(graph.attribute_dim(), config_.hidden_dim, &rng,
                 /*use_bias=*/false);
  discriminator_.emplace(config_.hidden_dim, config_.hidden_dim, &rng,
                         /*use_bias=*/false);

  std::vector<Variable> params = embed_->Parameters();
  for (Variable& p : discriminator_->Parameters()) {
    params.push_back(std::move(p));
  }
  Adam optimizer(params, config_.lr);

  const int n = graph.num_nodes();
  const Tensor ones = Tensor::Ones(n, 1);
  const Tensor zeros = Tensor::Zeros(n, 1);
  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    RoundOutput round = RunRound(graph, &rng);
    Variable loss = ag::Add(ag::BceWithLogits(round.positive_logits, ones),
                            ag::BceWithLogits(round.negative_logits, zeros));
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

DetectorOutput Cola::Score(const AttributedGraph& graph) const {
  NoGradGuard no_grad;
  Rng rng(config_.seed ^ 0xc01a);
  const int n = graph.num_nodes();
  DetectorOutput out;
  out.score.assign(n, 0.0);
  // Multi-round sampling inference: score = E[ s(negative) - s(positive) ].
  for (int round = 0; round < config_.test_rounds; ++round) {
    RoundOutput r = RunRound(graph, &rng);
    const Tensor pos = kernels::Sigmoid(r.positive_logits.value());
    const Tensor neg = kernels::Sigmoid(r.negative_logits.value());
    for (int i = 0; i < n; ++i) {
      out.score[i] += (neg.At(i, 0) - pos.At(i, 0)) / config_.test_rounds;
    }
  }
  return out;
}

}  // namespace vgod::detectors
