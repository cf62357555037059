// vgod_cli — command-line front end for the library.
//
//   vgod_cli generate --dataset=cora --output=g.graph [--scale=1] [--seed=7]
//            [--inject=none|standard|structural|contextual|edge-replace]
//   vgod_cli detect --graph=g.graph --detector=VGOD [--self-loop]
//            [--row-normalize] [--seed=7] [--epoch-scale=1]
//            [--num_threads=N] [--output=scores.tsv] [--top=10]
//            [--save-bundle=m.vgodb] [--telemetry_out=train.jsonl]
//            [--metrics_out=metrics.json] [--trace] [--trace_out=trace.json]
//            [--profile_out=profile.json|profile.folded]
//   vgod_cli eval --graph=g.graph --scores=scores.tsv
//
// `generate` writes a simulated benchmark dataset (optionally with
// injected outliers); `detect` trains a detector and prints/stores scores
// (--save-bundle exports the deployable model bundle that vgod_serve
// loads, docs/SERVING.md); `eval` computes AUC of a score file against the
// graph's stored labels.
// Observability (see docs/OBSERVABILITY.md): --telemetry_out streams one
// JSONL record per training epoch, --metrics_out dumps the process metric
// registry, --trace/--trace_out (or the VGOD_TRACE env var) capture Chrome
// trace_event JSON viewable in chrome://tracing, and --profile_out (or
// VGOD_PROFILE=path) writes the hierarchical compute profile — JSON call
// tree for *.json paths, collapsed flamegraph stacks otherwise.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>

#include "core/args.h"
#include "core/parallel.h"
#include "datasets/io.h"
#include "datasets/registry.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "eval/metrics.h"
#include "injection/injection.h"
#include "obs/fingerprint.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vgod {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: vgod_cli <generate|detect|eval> [--options]\n"
      "  generate --dataset=NAME --output=PATH [--scale=F] [--seed=N] "
      "[--inject=MODE]\n"
      "  detect   --graph=PATH [--detector=VGOD] [--self-loop] "
      "[--row-normalize]\n"
      "           [--seed=N] [--epoch-scale=F] [--num_threads=N] "
      "[--output=PATH]\n"
      "           [--top=K] [--save-bundle=PATH]\n"
      "           [--telemetry_out=PATH] [--metrics_out=PATH] "
      "[--trace] [--trace_out=PATH]\n"
      "           [--profile_out=PATH]\n"
      "  eval     --graph=PATH --scores=PATH\n"
      "Serve a saved bundle with vgod_serve.\n");
  return 2;
}

int RunGenerate(const ArgParser& args) {
  Status valid = args.Validate(
      {"dataset", "output", "scale", "seed", "inject", "clique-size",
       "num-cliques", "candidate-set"});
  if (!valid.ok()) return Fail(valid);
  const std::string name = args.GetString("dataset", "");
  const std::string output = args.GetString("output", "");
  if (name.empty() || output.empty()) return Usage();

  const uint64_t seed = args.GetInt("seed", 7);
  const double scale = args.GetDouble("scale", 1.0);
  const int q = static_cast<int>(args.GetInt("clique-size", 15));
  const int k = static_cast<int>(args.GetInt("candidate-set", 50));
  if (!args.status().ok()) return Fail(args.status());
  Result<datasets::Dataset> dataset =
      datasets::MakeDataset(name, scale, seed);
  if (!dataset.ok()) return Fail(dataset.status());
  AttributedGraph graph = std::move(dataset.value().graph);

  const std::string inject = args.GetString("inject", "none");
  Rng rng(seed ^ 0xc11);
  const int p = static_cast<int>(
      args.GetInt("num-cliques", std::max(1, graph.num_nodes() / (q * 40))));
  if (!args.status().ok()) return Fail(args.status());
  if (inject == "standard") {
    Result<injection::InjectionResult> injected =
        injection::InjectStandard(graph, p, q, k, &rng);
    if (!injected.ok()) return Fail(injected.status());
    graph = std::move(injected.value().graph);
  } else if (inject == "structural") {
    Result<injection::InjectionResult> injected =
        injection::InjectStructuralOutliers(graph, p, q, &rng);
    if (!injected.ok()) return Fail(injected.status());
    graph = std::move(injected.value().graph);
  } else if (inject == "contextual") {
    Result<injection::InjectionResult> injected =
        injection::InjectContextualOutliers(
            graph, p * q, k, injection::DistanceKind::kEuclidean, &rng);
    if (!injected.ok()) return Fail(injected.status());
    graph = std::move(injected.value().graph);
  } else if (inject == "edge-replace") {
    Result<injection::InjectionResult> injected =
        injection::InjectStructuralByEdgeReplacement(
            graph, graph.num_nodes() / 10, &rng);
    if (!injected.ok()) return Fail(injected.status());
    graph = std::move(injected.value().graph);
  } else if (inject != "none") {
    return Fail(Status::InvalidArgument("unknown --inject mode: " + inject));
  }

  Status saved = datasets::SaveGraph(graph, output);
  if (!saved.ok()) return Fail(saved);
  std::printf("wrote %s: %d nodes, %lld directed edges, %d attrs%s\n",
              output.c_str(), graph.num_nodes(),
              static_cast<long long>(graph.num_directed_edges()),
              graph.attribute_dim(),
              graph.has_outlier_labels() ? ", labeled" : "");
  return 0;
}

int RunDetect(const ArgParser& args) {
  Status valid = args.Validate({"graph", "detector", "self-loop",
                                "row-normalize", "seed", "epoch-scale",
                                "num_threads", "output", "top",
                                "save-bundle",
                                "telemetry_out", "metrics_out", "trace",
                                "trace_out", "profile_out"});
  if (!valid.ok()) return Fail(valid);
  const std::string graph_path = args.GetString("graph", "");
  if (graph_path.empty()) return Usage();
  const int num_threads = static_cast<int>(args.GetInt("num_threads", 0));
  const int top = static_cast<int>(args.GetInt("top", 10));
  detectors::DetectorOptions options;
  options.seed = args.GetInt("seed", 7);
  options.epoch_scale = args.GetDouble("epoch-scale", 1.0);
  if (!args.status().ok()) return Fail(args.status());

  // Size the kernel pool before any Fit/Score work touches it. 0 keeps the
  // VGOD_NUM_THREADS / hardware default; scores are bit-identical either
  // way (docs/PARALLELISM.md).
  if (num_threads > 0) par::SetNumThreads(num_threads);

  obs::InitTraceFromEnv();
  const std::string trace_path =
      args.GetString("trace_out", obs::TraceEnvPath());
  if (args.GetBool("trace") || !trace_path.empty()) {
    obs::SetTraceEnabled(true);
  }
  obs::InitProfileFromEnv();
  const std::string profile_path =
      args.GetString("profile_out", obs::ProfileEnvPath());
  if (!profile_path.empty()) obs::SetProfileEnabled(true);

  Result<AttributedGraph> graph = datasets::LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());

  std::unique_ptr<obs::TrainingMonitor> monitor;
  const std::string telemetry_path = args.GetString("telemetry_out", "");
  if (!telemetry_path.empty()) {
    Result<std::unique_ptr<obs::TrainingMonitor>> opened =
        obs::TrainingMonitor::WithJsonl(telemetry_path);
    if (!opened.ok()) return Fail(opened.status());
    monitor = std::move(opened).value();
  }

  options.self_loop = args.GetBool("self-loop");
  options.row_normalize_attributes = args.GetBool("row-normalize");
  options.monitor = monitor.get();
  const std::string detector_name = args.GetString("detector", "VGOD");
  Result<std::unique_ptr<detectors::OutlierDetector>> detector =
      detectors::MakeDetector(detector_name, options);
  if (!detector.ok()) return Fail(detector.status());

  Status fit = detector.value()->Fit(graph.value());
  if (!fit.ok()) return Fail(fit);
  detectors::DetectorOutput out;
  {
    VGOD_SCOPE("cli/score");
    out = detector.value()->Score(graph.value());
  }
  // Rank/sort code below (and eval::Auc) cannot digest NaN scores; fail
  // with a clear message instead of UB or a CHECK abort.
  Status finite = eval::NonFiniteCheck(out.score, detector_name + " scores");
  if (!finite.ok()) return Fail(finite);
  std::printf("%s fitted in %.2fs (%d epochs)\n", detector_name.c_str(),
              detector.value()->train_stats().train_seconds,
              detector.value()->train_stats().epochs);
  if (monitor != nullptr) {
    std::printf("wrote %zu epoch records to %s\n",
                monitor->Records().size(), telemetry_path.c_str());
  }

  const std::string metrics_path = args.GetString("metrics_out", "");
  if (!metrics_path.empty()) {
    Status written = obs::MetricsRegistry::Global().WriteJson(metrics_path);
    if (!written.ok()) return Fail(written);
    std::printf("wrote metrics to %s\n", metrics_path.c_str());
  }
  if (obs::TraceEnabled() && !trace_path.empty()) {
    Status written = obs::WriteTrace(trace_path);
    if (!written.ok()) return Fail(written);
    std::printf("wrote %zu trace events to %s\n", obs::TraceEventCount(),
                trace_path.c_str());
  }
  if (!profile_path.empty()) {
    Status written = obs::WriteProfile(profile_path);
    if (!written.ok()) return Fail(written);
    std::printf("wrote profile to %s\n", profile_path.c_str());
  }

  if (graph.value().has_outlier_labels()) {
    Result<double> auc =
        eval::TryAuc(out.score, graph.value().outlier_labels());
    if (auc.ok()) {
      std::printf("AUC against stored labels: %.4f\n", auc.value());
    } else {
      // Scores were already validated; this is a label pathology (e.g. a
      // single-class graph). Still worth the scores, not worth dying for.
      std::fprintf(stderr, "warning: AUC unavailable: %s\n",
                   auc.status().message().c_str());
    }
  }

  const std::string score_path = args.GetString("output", "");
  if (!score_path.empty()) {
    std::ofstream score_file(score_path);
    if (!score_file) {
      return Fail(Status::IoError("cannot write " + score_path));
    }
    for (size_t i = 0; i < out.score.size(); ++i) {
      score_file << i << "\t" << out.score[i] << "\n";
    }
    std::printf("wrote %zu scores to %s\n", out.score.size(),
                score_path.c_str());
  }

  const std::string bundle_path = args.GetString("save-bundle", "");
  if (!bundle_path.empty()) {
    Result<detectors::ModelBundle> bundle =
        detector.value()->ExportBundle();
    if (!bundle.ok()) return Fail(bundle.status());
    // Attach the training fingerprint (score-distribution sketch,
    // attribute moments, degree histogram) to the bundle config; the
    // serving drift monitor compares live traffic against it
    // (docs/OBSERVABILITY.md "Model-quality observability").
    {
      const AttributedGraph& fitted = graph.value();
      std::vector<float> scores(out.score.begin(), out.score.end());
      std::vector<int64_t> degrees(
          static_cast<size_t>(fitted.num_nodes()));
      for (int node = 0; node < fitted.num_nodes(); ++node) {
        degrees[static_cast<size_t>(node)] = fitted.Degree(node);
      }
      obs::ModelFingerprint fingerprint = obs::BuildFingerprint(
          scores,
          fitted.has_attributes() ? fitted.attributes().data() : nullptr,
          fitted.num_nodes(),
          fitted.has_attributes() ? fitted.attribute_dim() : 0, degrees);
      obs::JsonValue::Object config = bundle.value().config.object();
      config["fingerprint"] = fingerprint.ToJson();
      bundle.value().config = obs::JsonValue(std::move(config));
    }
    Status saved = detectors::SaveBundle(bundle.value(), bundle_path);
    if (!saved.ok()) return Fail(saved);
    std::printf("saved bundle to %s (%zu parameter tensors, fingerprinted)\n",
                bundle_path.c_str(), bundle.value().params.size());
  }

  std::vector<int> order(out.score.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](int a, int b) { return out.score[a] > out.score[b]; });
  std::printf("top-%d nodes by outlier score:\n", top);
  for (int i = 0; i < top && i < static_cast<int>(order.size()); ++i) {
    std::printf("  node %6d  score %g\n", order[i], out.score[order[i]]);
  }
  return 0;
}

int RunEval(const ArgParser& args) {
  Status valid = args.Validate({"graph", "scores"});
  if (!valid.ok()) return Fail(valid);
  const std::string graph_path = args.GetString("graph", "");
  const std::string score_path = args.GetString("scores", "");
  if (graph_path.empty() || score_path.empty()) return Usage();

  Result<AttributedGraph> graph = datasets::LoadGraph(graph_path);
  if (!graph.ok()) return Fail(graph.status());
  if (!graph.value().has_outlier_labels()) {
    return Fail(Status::FailedPrecondition(
        "graph has no stored outlier labels to evaluate against"));
  }
  std::ifstream score_file(score_path);
  if (!score_file) return Fail(Status::IoError("cannot read " + score_path));
  std::vector<double> scores(graph.value().num_nodes(), 0.0);
  int node = 0;
  double score = 0.0;
  while (score_file >> node >> score) {
    if (node < 0 || node >= graph.value().num_nodes()) {
      return Fail(Status::OutOfRange("score row for unknown node " +
                                     std::to_string(node)));
    }
    scores[node] = score;
  }
  // The loop above stops on the first token it cannot parse; silently
  // evaluating a half-read file would report a confident, wrong AUC.
  if (!score_file.eof() && score_file.fail()) {
    return Fail(Status::InvalidArgument(
        "malformed score file (expected 'node<TAB>score' rows): " +
        score_path));
  }
  Result<double> auc =
      eval::TryAuc(scores, graph.value().outlier_labels());
  if (!auc.ok()) return Fail(auc.status());
  std::printf("AUC: %.4f\n", auc.value());
  return 0;
}

int Main(int argc, const char* const* argv) {
  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) return Fail(args.status());
  if (args.value().positional().size() != 1) return Usage();
  const std::string& command = args.value().positional()[0];
  if (command == "generate") return RunGenerate(args.value());
  if (command == "detect") return RunDetect(args.value());
  if (command == "eval") return RunEval(args.value());
  return Usage();
}

}  // namespace
}  // namespace vgod

int main(int argc, char** argv) { return vgod::Main(argc, argv); }
