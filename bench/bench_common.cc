#include "bench_common.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "core/check.h"
#include "core/logging.h"
#include "core/rng.h"
#include "obs/json.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vgod::bench {
namespace {

double EnvDouble(const char* name, double fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::atof(value) : fallback;
}

struct ManifestResult {
  std::string dataset;
  std::string detector;
  std::string metric;
  double value = 0.0;
};

struct ManifestState {
  std::mutex mutex;
  std::string artifact;
  std::vector<ManifestResult> results;
};

ManifestState& Manifest() {
  static ManifestState* state = new ManifestState();
  return *state;
}

std::string& DefaultManifestPathStorage() {
  static std::string* path = new std::string();
  return *path;
}

/// VGOD_BENCH_MANIFEST when set, else the binary's registered default
/// (SetDefaultManifestPath), else nullptr.
const char* ManifestPath() {
  const char* env = std::getenv("VGOD_BENCH_MANIFEST");
  if (env != nullptr && env[0] != '\0') return env;
  const std::string& fallback = DefaultManifestPathStorage();
  return fallback.empty() ? nullptr : fallback.c_str();
}

/// {"artifact":...,"scale":...,"seed":...,"epoch_scale":...,
///  "results":[{dataset,detector,metric,value}...]}
std::string ManifestToJson() {
  ManifestState& state = Manifest();
  std::lock_guard<std::mutex> lock(state.mutex);
  std::string out = "{";
  out += "\"artifact\":";
  obs::AppendJsonString(&out, state.artifact);
  out += ",\"scale\":";
  obs::AppendJsonNumber(&out, EnvScale());
  out += ",\"seed\":";
  obs::AppendJsonNumber(&out, static_cast<double>(EnvSeed()));
  out += ",\"epoch_scale\":";
  obs::AppendJsonNumber(&out, EnvEpochScale());
  out += ",\"results\":[";
  bool first = true;
  for (const ManifestResult& r : state.results) {
    if (!first) out += ",";
    first = false;
    out += "{\"dataset\":";
    obs::AppendJsonString(&out, r.dataset);
    out += ",\"detector\":";
    obs::AppendJsonString(&out, r.detector);
    out += ",\"metric\":";
    obs::AppendJsonString(&out, r.metric);
    out += ",\"value\":";
    obs::AppendJsonNumber(&out, r.value);
    out += "}";
  }
  out += "]}";
  return out;
}

/// Registered via atexit by PrintBanner: the manifest (and, when
/// VGOD_TRACE or VGOD_PROFILE carried a path, the trace and the profile)
/// land on disk even if a bench binary returns from main without
/// explicit teardown.
void WriteArtifactsAtExit() {
  WriteManifest();
  const std::string trace_path = obs::TraceEnvPath();
  if (obs::TraceEnabled() && !trace_path.empty()) {
    const Status status = obs::WriteTrace(trace_path);
    if (!status.ok()) {
      VGOD_LOG(Error) << "trace export failed: " << status.ToString();
    }
  }
  const std::string profile_path = obs::ProfileEnvPath();
  if (obs::ProfileEnabled() && !profile_path.empty()) {
    const Status status = obs::WriteProfile(profile_path);
    if (!status.ok()) {
      VGOD_LOG(Error) << "profile export failed: " << status.ToString();
    }
  }
}

}  // namespace

double EnvScale() { return EnvDouble("VGOD_BENCH_SCALE", 1.0); }

uint64_t EnvSeed() {
  const char* value = std::getenv("VGOD_BENCH_SEED");
  return value != nullptr ? std::strtoull(value, nullptr, 10) : 7;
}

double EnvEpochScale() { return EnvDouble("VGOD_BENCH_EPOCH_SCALE", 1.0); }

InjectionParams StandardParams(const std::string& dataset_name,
                               int num_nodes) {
  // Structural outlier fractions implied by paper Table I (half of the
  // total outlier fraction, the other half being contextual).
  double structural_fraction = 0.0275;
  if (dataset_name == "citeseer") structural_fraction = 0.0225;
  if (dataset_name == "pubmed") structural_fraction = 0.0152;
  if (dataset_name == "flickr") structural_fraction = 0.0297;
  InjectionParams params;
  params.num_cliques = std::max(
      1, static_cast<int>(num_nodes * structural_fraction /
                              params.clique_size +
                          0.5));
  return params;
}

UnodCase MakeUnodCase(const std::string& name, uint64_t seed) {
  Result<datasets::Dataset> dataset =
      datasets::MakeDataset(name, EnvScale(), seed);
  VGOD_CHECK(dataset.ok()) << dataset.status().ToString();

  UnodCase unod_case;
  unod_case.name = name;
  unod_case.self_loop = name != "flickr";  // Paper §VI-B2.
  unod_case.row_normalize = name == "weibo";

  if (dataset.value().has_labeled_outliers) {
    unod_case.graph = std::move(dataset.value().graph);
    unod_case.combined = unod_case.graph.outlier_labels();
    return unod_case;
  }

  const InjectionParams params =
      StandardParams(name, dataset.value().graph.num_nodes());
  Rng rng(seed ^ 0x1217);
  Result<injection::InjectionResult> injected = injection::InjectStandard(
      dataset.value().graph, params.num_cliques, params.clique_size,
      params.candidate_set, &rng);
  VGOD_CHECK(injected.ok()) << injected.status().ToString();
  unod_case.graph = std::move(injected.value().graph);
  unod_case.structural = std::move(injected.value().structural);
  unod_case.contextual = std::move(injected.value().contextual);
  unod_case.combined = std::move(injected.value().combined);
  return unod_case;
}

detectors::DetectorOptions OptionsFor(const UnodCase& unod_case,
                                      uint64_t seed) {
  detectors::DetectorOptions options;
  options.seed = seed;
  options.self_loop = unod_case.self_loop;
  options.row_normalize_attributes = unod_case.row_normalize;
  options.epoch_scale = EnvEpochScale();
  return options;
}

void PrintBanner(const std::string& artifact, const std::string& what) {
  SetLogLevelFromEnv(LogLevel::kWarning);
  obs::InitTraceFromEnv();
  obs::InitProfileFromEnv();
  {
    ManifestState& state = Manifest();
    std::lock_guard<std::mutex> lock(state.mutex);
    state.artifact = artifact;
  }
  if (ManifestPath() != nullptr || obs::TraceEnabled() ||
      obs::ProfileEnabled()) {
    static const bool registered = []() {
      std::atexit(WriteArtifactsAtExit);
      return true;
    }();
    (void)registered;
  }
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), what.c_str());
  std::printf("scale=%.2f seed=%llu epoch_scale=%.2f  (see DESIGN.md §4-5)\n",
              EnvScale(), static_cast<unsigned long long>(EnvSeed()),
              EnvEpochScale());
  std::printf("==============================================================\n");
}

void RecordManifestResult(const std::string& dataset,
                          const std::string& detector,
                          const std::string& metric, double value) {
  if (ManifestPath() == nullptr) return;
  ManifestState& state = Manifest();
  std::lock_guard<std::mutex> lock(state.mutex);
  state.results.push_back(ManifestResult{dataset, detector, metric, value});
}

void SetDefaultManifestPath(const std::string& path) {
  DefaultManifestPathStorage() = path;
}

bool WriteManifest() {
  const char* path = ManifestPath();
  if (path == nullptr || path[0] == '\0') return false;
  std::ofstream out(path);
  if (!out) {
    VGOD_LOG(Error) << "cannot open manifest path " << path;
    return false;
  }
  out << ManifestToJson() << "\n";
  return out.good();
}

}  // namespace vgod::bench
