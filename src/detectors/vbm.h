#ifndef VGOD_DETECTORS_VBM_H_
#define VGOD_DETECTORS_VBM_H_

#include <memory>
#include <optional>

#include "core/rng.h"
#include "detectors/detector.h"
#include "obs/monitor.h"
#include "tensor/nn.h"
#include "tensor/optimizer.h"

namespace vgod::detectors {

/// Configuration of the Variance-Based Model (paper §V-A).
struct VbmConfig {
  /// Hidden dimension of the learned representation (paper: 128).
  int hidden_dim = 128;
  /// Training epochs (paper: 10; Fig 8 shows convergence within a few).
  int epochs = 10;
  /// Adam learning rate (paper: 0.005).
  float lr = 0.005f;
  /// The self-loop edge technique of paper Eq. 13, which extends neighbor
  /// variance to contextual outliers. The paper enables it on the
  /// low-average-degree datasets.
  bool self_loop = false;
  /// Row-normalize attributes before use (the paper applies this on Weibo).
  bool row_normalize_attributes = false;
  /// Mini-batch training (paper §V-D: "we can make use of various
  /// mini-batch training techniques ... to extend our model to a
  /// large-scale network"). 0 = full-batch. When positive, each step
  /// embeds only a batch of seed nodes plus their (sampled) neighborhoods
  /// instead of the whole graph.
  int batch_size = 0;
  /// With mini-batching, caps the neighbors used per seed node
  /// (GraphSAGE-style neighbor sampling). 0 = use all neighbors.
  int max_neighbors_per_node = 0;
  uint64_t seed = 1;
  /// Optional training telemetry sink: receives one EpochRecord per epoch
  /// and, when a score probe is installed, the current structural scores
  /// after each epoch (drives the AUC-vs-epoch study of paper Fig 8).
  /// Not owned; must outlive Fit().
  obs::TrainingMonitor* monitor = nullptr;
};

/// The Variance-Based Model: learns a linear + row-L2-normalized feature
/// map (Eq. 6) such that neighbor variance (Eq. 7-9) is small for real
/// neighborhoods and large for negative-sampled ones (Eq. 10-12). The
/// resulting neighbor-variance score detects structural outliers without
/// the degree bias of reconstruction approaches.
class Vbm : public OutlierDetector {
 public:
  explicit Vbm(VbmConfig config = {});

  std::string name() const override { return "VBM"; }
  Status Fit(const AttributedGraph& graph) override;
  DetectorOutput Score(const AttributedGraph& graph) const override;
  /// Retains the embedding h and the scores; recomputes the scores of
  /// S + A + N(A) after re-embedding the rows in A.
  ScoreUpdate ScoreIncremental(const AttributedGraph& graph,
                               const ScoreState* base,
                               const ChangedRows& changed) const override;

  const VbmConfig& config() const { return config_; }

  /// Embedding rows (Eq. 6) for arbitrary attribute rows under the fitted
  /// transform: h_i = L2Normalize(W x_i + b), applying the configured
  /// row-normalization first. Row-local (row i of the output reads only
  /// row i of the input), which is what makes the streaming path's
  /// single-row re-embedding on attribute events exact
  /// (stream::OnlineScorer). Fails when unfitted or on a width mismatch.
  Result<Tensor> EmbedRows(const Tensor& attributes) const;

  /// Bundle persistence (bundle.h): the config JSON carries hidden_dim,
  /// self_loop, and row_normalize_attributes, so RestoreFromBundle
  /// reconstructs the exact scoring architecture without a prior Fit.
  bool supports_bundles() const override { return true; }
  Result<ModelBundle> ExportBundle() const override;
  Status RestoreFromBundle(const ModelBundle& bundle) override;

  int expected_attribute_dim() const override {
    return transform_.has_value() ? transform_->in_features() : -1;
  }

 private:
  /// Rebuilds the transform from the tensor shapes and installs `tensors`.
  Status RestoreParameters(const std::vector<Tensor>& tensors);

  /// Hidden representation H of Eq. 6 for `attributes`.
  Variable Embed(const Tensor& attributes) const;
  /// Embed() off the autograd tape, for prepared attribute rows.
  Tensor EmbedPrepared(const Tensor& prepared) const;

  /// One optimization pass over all nodes in mini-batches (neighbor-sampled
  /// subgraphs); used when config_.batch_size > 0. Returns the mean
  /// per-batch loss of the epoch.
  double RunMiniBatchEpoch(const AttributedGraph& graph,
                           const Tensor& attributes, Optimizer* optimizer,
                           Rng* rng) const;

  VbmConfig config_;
  std::optional<nn::Linear> transform_;
};

}  // namespace vgod::detectors

#endif  // VGOD_DETECTORS_VBM_H_
