#include "detectors/vgod.h"

#include <algorithm>

#include "core/stopwatch.h"
#include "eval/metrics.h"
#include "obs/profile.h"

namespace vgod::detectors {

const char* ScoreCombinationName(ScoreCombination combination) {
  switch (combination) {
    case ScoreCombination::kMeanStd:
      return "mean-std";
    case ScoreCombination::kSumToUnit:
      return "sum-to-unit";
    case ScoreCombination::kWeighted:
      return "weight";
    case ScoreCombination::kRank:
      return "rank";
  }
  return "?";
}

Result<ScoreCombination> ParseScoreCombination(const std::string& name) {
  for (ScoreCombination combination :
       {ScoreCombination::kMeanStd, ScoreCombination::kSumToUnit,
        ScoreCombination::kWeighted, ScoreCombination::kRank}) {
    if (name == ScoreCombinationName(combination)) return combination;
  }
  return Status::InvalidArgument("unknown score combination: " + name);
}

Vgod::Vgod(VgodConfig config)
    : config_(config), vbm_(config.vbm), arm_(config.arm) {}

Status Vgod::Fit(const AttributedGraph& graph) {
  VGOD_MEMORY_PHASE("detector/vgod_fit");
  Stopwatch watch;
  // Separate training with independent epoch budgets (paper Algorithm 1):
  // joint training over-trains one component before the other converges.
  VGOD_RETURN_IF_ERROR(vbm_.Fit(graph));
  VGOD_RETURN_IF_ERROR(arm_.Fit(graph));
  train_stats_.epochs = config_.vbm.epochs + config_.arm.epochs;
  train_stats_.train_seconds = watch.ElapsedSeconds();
  // Concatenate the components' per-epoch telemetry (records carry the
  // component name, so the phases stay distinguishable).
  train_stats_.epoch_records.clear();
  for (const auto* component_stats :
       {&vbm_.train_stats(), &arm_.train_stats()}) {
    train_stats_.epoch_records.insert(train_stats_.epoch_records.end(),
                                      component_stats->epoch_records.begin(),
                                      component_stats->epoch_records.end());
  }
  return Status::Ok();
}

namespace {

/// VGOD's retained state: one per component.
struct VgodState final : ScoreState {
  std::shared_ptr<const ScoreState> vbm;
  std::shared_ptr<const ScoreState> arm;
};

}  // namespace

DetectorOutput Vgod::Score(const AttributedGraph& graph) const {
  return ScoreIncremental(graph, nullptr, {}).output;
}

ScoreUpdate Vgod::ScoreIncremental(const AttributedGraph& graph,
                                   const ScoreState* base,
                                   const ChangedRows& changed) const {
  VGOD_SCOPE("detector/vgod_score");
  const auto* prior = dynamic_cast<const VgodState*>(base);
  // ARM first: its attribute-wide retransform is the larger transient, and
  // running it before VBM keeps VBM's retained h out of that peak.
  ScoreUpdate arm = arm_.ScoreIncremental(
      graph, prior != nullptr ? prior->arm.get() : nullptr, changed);
  ScoreUpdate vbm = vbm_.ScoreIncremental(
      graph, prior != nullptr ? prior->vbm.get() : nullptr, changed);
  ScoreUpdate update;
  // Eq. 19's normalization reads every node, so the combination always
  // runs in full; it is O(n) and cheap next to either component.
  update.output = Combine(std::move(vbm.output.score),
                          std::move(arm.output.score));
  update.incremental = vbm.incremental && arm.incremental;
  update.dirty_rows = std::max(vbm.dirty_rows, arm.dirty_rows);
  if (vbm.state != nullptr && arm.state != nullptr) {
    auto state = std::make_shared<VgodState>();
    state->vbm = std::move(vbm.state);
    state->arm = std::move(arm.state);
    update.state = std::move(state);
  }
  return update;
}

DetectorOutput Vgod::Combine(std::vector<double> structural,
                             std::vector<double> contextual) const {
  DetectorOutput out;
  out.structural_score = std::move(structural);
  out.contextual_score = std::move(contextual);
  // A diverged component can emit non-finite scores, which the rank
  // normalizer rejects (NaN breaks its sort) and mean-std would silently
  // smear over every node. Combine the raw vectors instead so the NaN
  // reaches the caller's NonFiniteCheck — the serving engine turns it into
  // an error response rather than a dead process or poisoned JSON.
  if (!eval::NonFiniteCheck(out.structural_score, "structural").ok() ||
      !eval::NonFiniteCheck(out.contextual_score, "contextual").ok()) {
    out.score =
        eval::CombineScores(out.structural_score, out.contextual_score);
    return out;
  }
  switch (config_.combination) {
    case ScoreCombination::kMeanStd:
      out.score =
          eval::CombineScores(eval::MeanStdNormalize(out.structural_score),
                              eval::MeanStdNormalize(out.contextual_score));
      break;
    case ScoreCombination::kSumToUnit:
      out.score =
          eval::CombineScores(eval::SumToUnitNormalize(out.structural_score),
                              eval::SumToUnitNormalize(out.contextual_score));
      break;
    case ScoreCombination::kWeighted:
      out.score = eval::CombineScores(out.structural_score,
                                      out.contextual_score,
                                      config_.contextual_weight);
      break;
    case ScoreCombination::kRank:
      out.score =
          eval::CombineScores(eval::RankNormalize(out.structural_score),
                              eval::RankNormalize(out.contextual_score));
      break;
  }
  return out;
}

Result<ModelBundle> Vgod::ExportBundle() const {
  Result<ModelBundle> vbm_bundle = vbm_.ExportBundle();
  if (!vbm_bundle.ok()) return vbm_bundle.status();
  Result<ModelBundle> arm_bundle = arm_.ExportBundle();
  if (!arm_bundle.ok()) return arm_bundle.status();

  ModelBundle bundle;
  bundle.detector = name();
  obs::JsonValue::Object config;
  config["vbm"] = vbm_bundle.value().config;
  config["arm"] = arm_bundle.value().config;
  config["vbm_params"] = obs::JsonValue(
      static_cast<int64_t>(vbm_bundle.value().params.size()));
  config["combination"] = obs::JsonValue(
      std::string(ScoreCombinationName(config_.combination)));
  config["contextual_weight"] = obs::JsonValue(config_.contextual_weight);
  bundle.config = obs::JsonValue(std::move(config));

  bundle.params = std::move(vbm_bundle.value().params);
  for (Tensor& tensor : arm_bundle.value().params) {
    bundle.params.push_back(std::move(tensor));
  }
  return bundle;
}

Status Vgod::RestoreFromBundle(const ModelBundle& bundle) {
  if (bundle.detector != name()) {
    return Status::InvalidArgument("bundle is for detector '" +
                                   bundle.detector + "', not " + name());
  }
  if (!bundle.config.is_object()) {
    return Status::InvalidArgument("VGOD bundle is missing its config");
  }
  // Untrusted split point: validate as a double first — casting a NaN or
  // out-of-range value to size_t is UB, not just a wrong answer.
  const double split = ConfigNumber(bundle.config, "vbm_params", -1.0);
  if (!(split >= 0.0 &&
        split <= static_cast<double>(bundle.params.size()))) {
    return Status::InvalidArgument("VGOD bundle has a corrupt vbm_params "
                                   "split");
  }
  const auto vbm_params = static_cast<size_t>(split);
  Result<ScoreCombination> combination = ParseScoreCombination(ConfigString(
      bundle.config, "combination",
      ScoreCombinationName(config_.combination)));
  if (!combination.ok()) return combination.status();
  config_.combination = combination.value();
  config_.contextual_weight = ConfigNumber(
      bundle.config, "contextual_weight", config_.contextual_weight);

  ModelBundle vbm_bundle;
  vbm_bundle.detector = "VBM";
  vbm_bundle.config = bundle.config.at("vbm");
  vbm_bundle.params.assign(bundle.params.begin(),
                           bundle.params.begin() + vbm_params);
  VGOD_RETURN_IF_ERROR(vbm_.RestoreFromBundle(vbm_bundle));
  config_.vbm = vbm_.config();

  ModelBundle arm_bundle;
  arm_bundle.detector = "ARM";
  arm_bundle.config = bundle.config.at("arm");
  arm_bundle.params.assign(bundle.params.begin() + vbm_params,
                           bundle.params.end());
  VGOD_RETURN_IF_ERROR(arm_.RestoreFromBundle(arm_bundle));
  config_.arm = arm_.config();
  return Status::Ok();
}

}  // namespace vgod::detectors
