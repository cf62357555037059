#ifndef VGOD_DETECTORS_VGOD_H_
#define VGOD_DETECTORS_VGOD_H_

#include <memory>

#include "detectors/arm.h"
#include "detectors/detector.h"
#include "detectors/vbm.h"

namespace vgod::detectors {

/// How the structural and contextual scores are merged (paper Eq. 19 and
/// the Appendix A ablation).
enum class ScoreCombination {
  kMeanStd,     // Eq. 19: z-score both, then sum (the paper's choice).
  kSumToUnit,   // Eq. 23: divide by the score total, then sum.
  kWeighted,    // Raw weighted sum without normalization.
  kRank,        // Extension: fractional-rank normalize both, then sum.
};

const char* ScoreCombinationName(ScoreCombination combination);

/// Inverse of ScoreCombinationName (used by bundle configs and the CLI).
Result<ScoreCombination> ParseScoreCombination(const std::string& name);

/// Configuration of the full VGOD framework (paper Fig 4).
struct VgodConfig {
  VbmConfig vbm;
  ArmConfig arm;
  ScoreCombination combination = ScoreCombination::kMeanStd;
  /// Weight on the contextual score for kWeighted.
  double contextual_weight = 1.0;
};

/// Variance-based Graph Outlier Detection: a VBM for structural outliers
/// and an ARM for contextual outliers, trained *separately* (to avoid the
/// unbalanced optimization of jointly trained baselines, paper §V-C) and
/// combined by score normalization at inference.
class Vgod : public OutlierDetector {
 public:
  explicit Vgod(VgodConfig config = {});

  std::string name() const override { return "VGOD"; }
  Status Fit(const AttributedGraph& graph) override;
  DetectorOutput Score(const AttributedGraph& graph) const override;
  /// Rescores each component incrementally, then recombines (Eq. 19)
  /// over every node.
  ScoreUpdate ScoreIncremental(const AttributedGraph& graph,
                               const ScoreState* base,
                               const ChangedRows& changed) const override;

  const Vbm& vbm() const { return vbm_; }
  const Arm& arm() const { return arm_; }
  const VgodConfig& config() const { return config_; }

  /// Bundle persistence (bundle.h): one bundle holds both component models
  /// (VBM parameters first, then ARM) plus the combination rule, so a
  /// single artifact restores the whole framework.
  bool supports_bundles() const override { return true; }
  Result<ModelBundle> ExportBundle() const override;
  Status RestoreFromBundle(const ModelBundle& bundle) override;

  /// Both components train on the same attribute schema; the VBM's is
  /// authoritative.
  int expected_attribute_dim() const override {
    return vbm_.expected_attribute_dim();
  }

 private:
  /// Merges the component scores by the configured combination.
  DetectorOutput Combine(std::vector<double> structural,
                         std::vector<double> contextual) const;

  VgodConfig config_;
  Vbm vbm_;
  Arm arm_;
};

}  // namespace vgod::detectors

#endif  // VGOD_DETECTORS_VGOD_H_
