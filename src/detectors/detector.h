#ifndef VGOD_DETECTORS_DETECTOR_H_
#define VGOD_DETECTORS_DETECTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "core/status.h"
#include "detectors/bundle.h"
#include "graph/graph.h"
#include "obs/monitor.h"

namespace vgod::detectors {

/// Scores produced by a detector. Higher = more anomalous (paper
/// Definition 2). Component scores are present only for detectors that
/// separate structural and contextual signals (VGOD, DegNorm, AnomalyDAE,
/// Dominant, DONE, CONAD); empty otherwise.
struct DetectorOutput {
  std::vector<double> score;
  std::vector<double> structural_score;
  std::vector<double> contextual_score;

  bool has_components() const {
    return !structural_score.empty() && !contextual_score.empty();
  }
};

/// Rows of a graph that changed since an earlier version of it: the seeds
/// of an incremental rescore. Both lists are sorted and duplicate-free.
struct ChangedRows {
  /// Rows whose attribute vector was replaced (A).
  std::vector<int> attributes;
  /// Rows whose neighbor list changed (S): both endpoints of every edge
  /// that was added or removed.
  std::vector<int> adjacency;
};

/// Sorted union of two sorted, duplicate-free row lists.
std::vector<int> UnionRows(const std::vector<int>& a,
                           const std::vector<int>& b);

/// Attribute rows `rows` of `graph`, divided by their row sums when
/// `row_normalize` (the paper's Weibo preprocessing). Both steps are
/// row-local, so these are the same bits as those rows of the whole
/// prepared matrix.
Tensor PreparedAttributeRows(const AttributedGraph& graph,
                             const std::vector<int>& rows,
                             bool row_normalize);

/// Per-layer activations of one scored graph version, the base an
/// incremental rescore of a later version patches. Opaque outside the
/// detector that made it, and immutable once returned.
class ScoreState {
 public:
  virtual ~ScoreState() = default;
};

/// When the rows an incremental rescore would recompute in its deepest
/// layer pass this fraction of the graph, it scores every row instead: the
/// gather/scatter bookkeeping no longer pays for itself.
inline constexpr double kMaxIncrementalDirtyFraction = 0.5;

/// What OutlierDetector::ScoreIncremental returns.
struct ScoreUpdate {
  DetectorOutput output;
  /// The retained state of the scored graph, base of the next rescore;
  /// null when the detector does not rescore incrementally.
  std::shared_ptr<const ScoreState> state;
  /// True when `output` patched a base state, false when every row was
  /// scored.
  bool incremental = false;
  /// Rows recomputed in the deepest layer (every node on a full pass).
  int dirty_rows = 0;
};

/// Wall-clock accounting for the efficiency experiment (paper Fig 7 /
/// Table VII), plus the per-epoch telemetry captured by
/// obs::TrainingRun (loss, grad norm, epoch seconds, peak tensor
/// bytes). `epoch_records` is empty for non-deep detectors.
struct TrainStats {
  int epochs = 0;
  double train_seconds = 0.0;
  std::vector<obs::EpochRecord> epoch_records;

  double SecondsPerEpoch() const {
    return epochs > 0 ? train_seconds / epochs : 0.0;
  }
};

/// Unsupervised node outlier detector. The transductive protocol of the
/// paper is Fit(g) then Score(g) on the same graph; the inductive protocol
/// (paper Appendix B) calls Score on a different graph with the same
/// attribute schema. Detectors that cannot score unseen graphs
/// (AnomalyDAE) document it via supports_inductive().
class OutlierDetector {
 public:
  virtual ~OutlierDetector() = default;

  virtual std::string name() const = 0;

  /// Trains on `graph` without labels. Must be called before Score.
  virtual Status Fit(const AttributedGraph& graph) = 0;

  /// Scores every node of `graph`.
  virtual DetectorOutput Score(const AttributedGraph& graph) const = 0;

  /// Scores `graph` bit-identically to Score(graph), reusing `base`: the
  /// state returned for an earlier version of the same graph, from which
  /// `graph` differs only in the rows `changed` lists (and nodes appended
  /// after them). Only the rows those seeds can reach are recomputed; a
  /// null `base`, a changed node count or a dirty set beyond
  /// kMaxIncrementalDirtyFraction scores every row. `base` is never
  /// modified. The default means "unsupported": a plain Score() and no
  /// state.
  virtual ScoreUpdate ScoreIncremental(const AttributedGraph& graph,
                                       const ScoreState* base,
                                       const ChangedRows& changed) const;

  /// Whether a fitted model can score a graph other than its training
  /// graph (paper Table II, "Inductive Inference" column).
  virtual bool supports_inductive() const { return true; }

  /// The attribute width a fitted (or bundle-restored) model requires of
  /// any graph it scores, or -1 when unknown (unfitted, or the detector is
  /// schema-free). The serving layer checks the resident graph against
  /// this at startup — a mismatch would otherwise only surface as a shape
  /// CHECK deep inside the first Score() kernel.
  virtual int expected_attribute_dim() const { return -1; }

  /// Whether this detector can round-trip through a model bundle
  /// (bundle.h) — the deployment artifact vgod::serve loads.
  virtual bool supports_bundles() const { return false; }

  /// Packs the fitted model (name, architecture config, parameters) into a
  /// bundle. Default: FailedPrecondition for detectors without support.
  virtual Result<ModelBundle> ExportBundle() const;

  /// Reconfigures this detector from `bundle.config` and installs
  /// `bundle.params`, making it ready to Score without a Fit. Fails on
  /// detector-name, parameter-count, or shape mismatch.
  virtual Status RestoreFromBundle(const ModelBundle& bundle);

  const TrainStats& train_stats() const { return train_stats_; }

 protected:
  TrainStats train_stats_;
};

}  // namespace vgod::detectors

#endif  // VGOD_DETECTORS_DETECTOR_H_
