// The detect stage: the paper's offline task. VGOD fit + score and
// reduced-epoch Dominant fits on the injected pubmed-like graph, one of
// each per round, checked against references computed apart from the
// program.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/parallel.h"
#include "datasets/io.h"
#include "detectors/bundle.h"
#include "eval/metrics.h"
#include "obs/memory.h"

namespace perfbench {

namespace {

using vgod::detectors::DetectorOutput;
using vgod::detectors::Dominant;
using vgod::detectors::Vgod;

constexpr int kSetupRepeats = 21;
// Full-graph scores per sample window; there is one window after each
// stage's round, kRounds * 3 in all.
constexpr int kScoresPerSample = 3;

void CheckVgodOutput(const DetectInputs& inputs, const Vgod& vgod,
                     const DetectorOutput& out, Report* report) {
  const double program_auc = vgod::eval::Auc(out.score, inputs.labels);
  const double bench_auc = RankAuc(out.score, inputs.labels);
  report->Check(AucAgrees(bench_auc, program_auc),
                "detect.auc_matches_program");
  report->Check(bench_auc > 0.9, "detect.auc_above_0.9",
                std::to_string(bench_auc));
  report->Check(RecombinationAgrees(out.structural_score,
                                    out.contextual_score, out.score),
                "detect.eq19_recombination");
  Result<Tensor> h = vgod.vbm().EmbedRows(inputs.graph.attributes());
  report->Check(h.ok() && NeighborVarianceAgrees(inputs.graph, h.value(),
                                                 out.structural_score),
                "detect.neighbor_variance_eq7_9");
}

class DetectStage : public Stage {
 public:
  DetectStage(const RunOptions& options, Pipeline* pipeline, Report* report)
      : options_(options), pipeline_(pipeline), report_(report) {}

  // Set-up (build the injected graph, construct the detector), the first
  // VGOD fit with its checks, and the served bundle.
  Status Start() override {
    Span stage("detect.start");
    vgod::par::SetNumThreads(kKernelThreads);
    Phase setup_phase{"detect.setup"};
    std::vector<double> setup_s;
    Result<DetectInputs> inputs = Status::Internal("no set-up ran");
    for (int i = 0; i < kSetupRepeats; ++i) {
      ++setup_phase.attempted;
      setup_s.push_back(Timed("detect.setup", [&] {
        inputs = MakeDetectInputs(options_.seed, options_.scale);
        pipeline_->vgod =
            std::make_unique<Vgod>(BenchVgodConfig(options_.seed));
      }));
      if (!inputs.ok()) {
        ++setup_phase.failed;
        report_->AddPhase(setup_phase);
        return inputs.status();
      }
      ++setup_phase.succeeded;
    }
    report_->AddPhase(setup_phase);
    pipeline_->inputs = std::move(inputs).value();
    pipeline_->setup_s += Median(setup_s);
    report_->Note("detect.setup_s", Median(setup_s));

    VGOD_RETURN_IF_ERROR(FitVgod());
    CheckVgodOutput(pipeline_->inputs, *pipeline_->vgod, reference_, report_);
    Result<vgod::detectors::ModelBundle> bundle =
        pipeline_->vgod->ExportBundle();
    if (!bundle.ok()) return bundle.status();
    pipeline_->bundle_path = options_.workdir + "/model.vgodb";
    pipeline_->graph_path = options_.workdir + "/resident.graph";
    VGOD_RETURN_IF_ERROR(
        vgod::detectors::SaveBundle(bundle.value(), pipeline_->bundle_path));
    return vgod::datasets::SaveGraph(pipeline_->inputs.graph,
                                     pipeline_->graph_path);
  }

  // A Dominant fit in the first and last rounds; the next VGOD fit in all
  // but the last.
  Status Round(int round) override {
    Span stage("detect.round");
    vgod::par::SetNumThreads(kKernelThreads);
    if (round == 0 || round == kRounds - 1) {
      VGOD_RETURN_IF_ERROR(FitDominant(round));
    }
    return round + 1 < kRounds ? FitVgod() : Status::Ok();
  }

  // A burst of full-graph scores of the served VGOD.
  Status Sample() override {
    vgod::par::SetNumThreads(kKernelThreads);
    const Vgod& vgod = *pipeline_->vgod;
    const AttributedGraph& graph = pipeline_->inputs.graph;
    for (int i = 0; i < kScoresPerSample; ++i) {
      ++score_phase_.attempted;
      DetectorOutput out;
      score_ms_.push_back(1e3 * Timed("detect.vgod_score",
                                      [&] { out = vgod.Score(graph); }));
      if (FirstBitDifference(out.score, reference_.score) >= 0) {
        deterministic_ = false;
      }
      ++score_phase_.succeeded;
    }
    return Status::Ok();
  }

  Status Finish() override {
    report_->AddPhase(fit_phase_);
    report_->AddPhase(score_phase_);
    report_->AddPhase(dominant_phase_);
    report_->Check(deterministic_, "detect.vgod_fits_bit_identical");
    report_->EndToEnd("fit_s", Median(fit_s_), "s");
    report_->EndToEnd("score_ms", Median(score_ms_), "ms");
    report_->EndToEnd("dominant_fit_s", Median(dominant_s_), "s");
    report_->EndToEnd(
        "auc", RankAuc(reference_.score, pipeline_->inputs.labels), "ratio");
    report_->EndToEnd("peak_tensor_mb", peak_mb_, "MiB");
    return Status::Ok();
  }

 private:
  // A reduced-epoch Dominant fit; the first one is checked.
  Status FitDominant(int round) {
    const DetectInputs& in = pipeline_->inputs;
    Dominant dominant(BenchDominantConfig(options_.seed));
    Status fitted = Status::Ok();
    ++dominant_phase_.attempted;
    dominant_s_.push_back(
        Timed("detect.dominant_fit", [&] { fitted = dominant.Fit(in.graph); }));
    if (!fitted.ok()) {
      ++dominant_phase_.failed;
      return fitted;
    }
    ++dominant_phase_.succeeded;
    if (round == 0) {
      const DetectorOutput dom = dominant.Score(in.graph);
      const double auc = RankAuc(dom.score, in.labels);
      report_->Note("detect.dominant_auc", auc);
      report_->Check(vgod::eval::NonFiniteCheck(dom.score, "dominant").ok(),
                     "detect.dominant_scores_finite");
      report_->Check(auc > 0.5, "detect.dominant_auc_above_0.5",
                     std::to_string(auc));
    }
    return Status::Ok();
  }

  // A fresh VGOD fit and one full-graph score. Every fit must reproduce the
  // first one bit for bit.
  Status FitVgod() {
    const DetectInputs& in = pipeline_->inputs;
    auto vgod = std::make_unique<Vgod>(BenchVgodConfig(options_.seed));
    vgod::obs::ResetPeakTensorBytes();
    Status fitted = Status::Ok();
    ++fit_phase_.attempted;
    fit_s_.push_back(
        Timed("detect.vgod_fit", [&] { fitted = vgod->Fit(in.graph); }));
    if (!fitted.ok()) {
      ++fit_phase_.failed;
      return fitted;
    }
    ++fit_phase_.succeeded;
    const DetectorOutput out = vgod->Score(in.graph);
    if (fit_s_.size() == 1) {
      // Measured on the first fit only, when nothing but the input graph
      // holds tensors; later fits run beside the served model.
      peak_mb_ = static_cast<double>(vgod::obs::PeakTensorBytes()) /
                 (1024.0 * 1024.0);
      reference_ = out;
      pipeline_->vgod = std::move(vgod);
    } else if (FirstBitDifference(out.score, reference_.score) >= 0) {
      deterministic_ = false;
    }
    return Status::Ok();
  }

  const RunOptions& options_;
  Pipeline* pipeline_;
  Report* report_;
  Phase fit_phase_{"detect.vgod_fit"};
  Phase score_phase_{"detect.vgod_score"};
  Phase dominant_phase_{"detect.dominant_fit"};
  std::vector<double> fit_s_, score_ms_, dominant_s_;
  double peak_mb_ = 0.0;
  DetectorOutput reference_;
  bool deterministic_ = true;
};

}  // namespace

std::unique_ptr<Stage> MakeDetectStage(const RunOptions& options,
                                       Pipeline* pipeline, Report* report) {
  return std::make_unique<DetectStage>(options, pipeline, report);
}

}  // namespace perfbench
