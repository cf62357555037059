#ifndef VGOD_BENCH_BENCH_COMMON_H_
#define VGOD_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "datasets/registry.h"
#include "detectors/registry.h"
#include "graph/graph.h"
#include "injection/injection.h"

namespace vgod::bench {

// Shared plumbing for the bench binaries that regenerate the paper's
// tables and figures. Environment knobs:
//   VGOD_BENCH_SCALE       node-count multiplier (default 1.0 = DESIGN.md §4)
//   VGOD_BENCH_SEED        base seed (default 7)
//   VGOD_BENCH_EPOCH_SCALE multiplier on every model's epoch budget
//                          (default 1.0; use ~0.2 for a quick smoke run)
//   VGOD_BENCH_MANIFEST    path for a per-run JSON manifest (artifact,
//                          scale/seed knobs, recorded results). Written
//                          at process exit; unset = no manifest.
//   VGOD_LOG_LEVEL         log threshold override (core/logging.h); bench
//                          binaries default to "warning"
//   VGOD_TRACE             enable the trace sink of every scope
//                          (obs/trace.h); a path-like value also sets the
//                          export destination, written at process exit
//   VGOD_PROFILE           enable the profile sink (obs/profile.h); a
//                          path-like value is written at process exit,
//                          as JSON for ".json", else folded stacks

double EnvScale();
uint64_t EnvSeed();
double EnvEpochScale();

/// Standard injection parameters for a dataset (paper §VI-B1): q=15, k=50,
/// p sized so structural outliers are ~half the paper's Table I outlier
/// fraction of the *scaled* node count.
struct InjectionParams {
  int num_cliques = 5;      // p
  int clique_size = 15;     // q
  int candidate_set = 50;   // k
};
InjectionParams StandardParams(const std::string& dataset_name,
                               int num_nodes);

/// One fully prepared UNOD benchmark case: the (possibly injected) graph
/// plus per-type ground truth and the paper's per-dataset model settings.
struct UnodCase {
  std::string name;
  AttributedGraph graph;
  std::vector<uint8_t> structural;  // Empty for weibo (labels only).
  std::vector<uint8_t> contextual;  // Empty for weibo.
  std::vector<uint8_t> combined;
  bool self_loop = false;          // Paper: cora/citeseer/pubmed/weibo.
  bool row_normalize = false;      // Paper: weibo.

  bool has_type_labels() const { return !structural.empty(); }
};

/// Builds the named dataset at the global bench scale and applies the
/// standard injection (no injection for weibo — it carries real labels).
UnodCase MakeUnodCase(const std::string& name, uint64_t seed);

/// Detector options matching `unod_case` (self-loop / row-normalization /
/// epoch scale).
detectors::DetectorOptions OptionsFor(const UnodCase& unod_case,
                                      uint64_t seed);

/// Prints the standard bench banner: which paper artifact this regenerates
/// and the active scale/seed knobs. Also applies VGOD_LOG_LEVEL (fallback:
/// warning), arms tracing from VGOD_TRACE and profiling from VGOD_PROFILE,
/// and registers the manifest/trace/profile writer to run at process exit.
void PrintBanner(const std::string& artifact, const std::string& what);

/// Adds one named result (typically an AUC or a timing) to the run
/// manifest. Safe to call unconditionally: a no-op without
/// VGOD_BENCH_MANIFEST.
void RecordManifestResult(const std::string& dataset,
                          const std::string& detector,
                          const std::string& metric, double value);

/// Writes the manifest JSON now instead of at exit (mainly for tests).
/// Returns false when no manifest path is configured or the write fails.
bool WriteManifest();

/// Default manifest destination used when VGOD_BENCH_MANIFEST is unset,
/// so benches that promise an artifact (BENCH_kernels.json,
/// BENCH_efficiency.json) always emit one. Call before PrintBanner (which
/// registers the at-exit writer); the environment variable still wins.
void SetDefaultManifestPath(const std::string& path);

}  // namespace vgod::bench

#endif  // VGOD_BENCH_BENCH_COMMON_H_
