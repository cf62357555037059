#ifndef VGOD_DETECTORS_ARM_H_
#define VGOD_DETECTORS_ARM_H_

#include <memory>
#include <optional>
#include <vector>

#include "detectors/detector.h"
#include "gnn/layers.h"
#include "tensor/nn.h"

namespace vgod::detectors {

/// Configuration of the Attribute Reconstruction Model (paper §V-B).
struct ArmConfig {
  /// Hidden dimension. The paper uses 128 on graphs of 2.7k-19.7k nodes;
  /// the simulated datasets here are ~4-10x smaller, so the default keeps a
  /// comparable nodes-per-hidden-unit ratio. An over-provisioned ARM
  /// memorizes the large-norm outlier rows (MSE weights them most) and its
  /// contextual AUC *inverts* with training — measured in
  /// bench/table4_unod_auc sweeps.
  int hidden_dim = 32;
  /// Number of GNN layers L (paper: 2).
  int num_layers = 2;
  /// GNN backbone (paper default: GAT; Tables VIII-IX ablate GCN/GIN).
  gnn::GnnKind gnn = gnn::GnnKind::kGat;
  /// Training epochs (paper: 100, scaled down with the capacity above).
  int epochs = 40;
  float lr = 0.005f;
  /// Row-normalize attributes before use (paper: applied on Weibo).
  bool row_normalize_attributes = false;
  uint64_t seed = 2;
  /// Optional training telemetry sink (one EpochRecord per epoch). Not
  /// owned; must outlive Fit().
  obs::TrainingMonitor* monitor = nullptr;
};

/// The Attribute Reconstruction Model: linear feature transform with row
/// L2 normalization (Eq. 14), L GNN layers (Eq. 15), linear
/// retransformation back to attribute space (Eq. 16). The per-node squared
/// reconstruction error (Eq. 17) is the contextual outlier score.
class Arm : public OutlierDetector {
 public:
  explicit Arm(ArmConfig config = {});

  std::string name() const override { return "ARM"; }
  Status Fit(const AttributedGraph& graph) override;
  DetectorOutput Score(const AttributedGraph& graph) const override;
  /// With the GAT backbone, retains each layer's s, p, q and the errors,
  /// and recomputes layer l for D_l = S + D_(l-1) + N(D_(l-1)) from
  /// D_0 = A. Other backbones always score in full.
  ScoreUpdate ScoreIncremental(const AttributedGraph& graph,
                               const ScoreState* base,
                               const ChangedRows& changed) const override;

  const ArmConfig& config() const { return config_; }

  /// Bundle persistence (bundle.h): the config JSON carries hidden_dim,
  /// num_layers, the GNN backbone name, and row_normalize_attributes.
  bool supports_bundles() const override { return true; }
  Result<ModelBundle> ExportBundle() const override;
  Status RestoreFromBundle(const ModelBundle& bundle) override;

  int expected_attribute_dim() const override {
    return in_transform_.has_value() ? in_transform_->in_features() : -1;
  }

 private:
  /// Rebuilds the module stack from the tensor shapes + current config and
  /// installs `tensors`.
  Status RestoreParameters(const std::vector<Tensor>& tensors);

  /// Reconstructed attribute matrix X_hat for `graph`.
  Variable Reconstruct(std::shared_ptr<const AttributedGraph> graph,
                       const Tensor& attributes) const;

  std::vector<Variable> Parameters() const;

  /// (Re)creates the module stack for `input_dim` attributes.
  void BuildModules(int input_dim, Rng* rng);

  ArmConfig config_;
  std::optional<nn::Linear> in_transform_;
  std::vector<std::unique_ptr<gnn::GnnLayer>> layers_;
  std::optional<nn::Linear> out_transform_;
};

}  // namespace vgod::detectors

#endif  // VGOD_DETECTORS_ARM_H_
