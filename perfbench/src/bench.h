// Shared pieces of the benchmark runner: statistics, the result report, the
// in-memory span recorder, workload inputs, the reference checks and the
// server child process. Everything here is the benchmark's own code; it
// calls the program only through its public headers and its HTTP surface.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/status.h"
#include "detectors/detector.h"
#include "detectors/dominant.h"
#include "detectors/vgod.h"
#include "graph/graph.h"
#include "obs/json.h"
#include "stream/events.h"
#include "tensor/tensor.h"

namespace perfbench {

using vgod::AttributedGraph;
using vgod::Result;
using vgod::Status;
using vgod::Tensor;

// ---------------------------------------------------------------- settings
// Every thread count the benchmark uses, fixed here and echoed in the
// output so that two runs can only differ by the code under test.
// One kernel thread in-process: with two, back-to-back VGOD scores on the
// shared 4-vCPU machine spread 0.54 of their median (interquartile) against
// 0.10 with one, because every parallel region waits for both threads.
inline constexpr int kKernelThreads = 1;     // vgod::par width in-process
inline constexpr int kEngineThreads = 2;     // vgod_serve --threads
inline constexpr int kServerKernelThreads = 1;  // vgod_serve --num_threads
inline constexpr int kDispatchThreads = 2;   // vgod_serve --dispatch-threads
inline constexpr int kConnections = 4;       // load connections, one thread

inline constexpr const char* kDataset = "pubmed";
inline constexpr int kCliqueSize = 15;
inline constexpr int kCandidateSet = 50;

// ------------------------------------------------------------------- time
double Now();  // steady clock, seconds

// -------------------------------------------------------------- statistics
double Median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1]; 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
double Mean(const std::vector<double>& values);

// ------------------------------------------------------------------ report
/// One phase of a workload: operations attempted, succeeded and failed,
/// and (for open-loop phases) how late the generator sent them.
struct Phase {
  std::string name;
  int64_t attempted = 0;
  int64_t succeeded = 0;
  int64_t failed = 0;
  double offered_rps = 0.0;
  double late_p50_ms = 0.0;
  double late_p99_ms = 0.0;
  double late_max_ms = 0.0;
};

class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void AddPhase(const Phase& phase) { phases_.push_back(phase); }
  /// Records one correctness check; a false `ok` makes the run incorrect.
  void Check(bool ok, const std::string& what, const std::string& detail = "");
  void Note(const std::string& key, double value) { notes_[key] = value; }
  /// The traced run reports per-layer metrics; its end-to-end figures go
  /// to the notes, where they give the tracing overhead.
  void SetTraced(bool traced) { traced_ = traced; }
  void EndToEnd(const std::string& name, double value,
                const std::string& unit) {
    if (traced_) {
      Note("e2e." + name, value);
    } else {
      Metric(name, value, unit);
    }
  }
  bool correct() const { return failed_checks_ == 0; }
  /// Line 1: phases, checks and settings; line 2: the result object.
  void Print(const std::string& workload, uint64_t seed) const;

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
  std::vector<Phase> phases_;
  std::map<std::string, double> notes_;
  int passed_checks_ = 0;
  int failed_checks_ = 0;
  bool traced_ = false;
};

// ------------------------------------------------------------------ spans
/// In-memory span recorder for the traced run. Disabled (one branch per
/// span) in the untraced run that yields the end-to-end metrics.
class Tracer {
 public:
  static Tracer& Get();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }
  /// Opens a span under the innermost open span of the calling thread.
  int Begin(const std::string& name, uint64_t request_id = 0);
  void End(int id);
  /// Records a span whose timing was taken elsewhere (an HTTP request
  /// from due time to completion).
  void Record(const std::string& name, double start, double end,
              uint64_t request_id);
  /// Writes all spans plus per-name self time to `path` (JSON).
  Status Write(const std::string& path) const;

 private:
  struct SpanRecord {
    std::string name;
    double start = 0.0;
    double end = -1.0;
    int parent = -1;
    uint64_t request_id = 0;
  };
  bool enabled_ = false;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

class Span {
 public:
  explicit Span(const std::string& name, uint64_t request_id = 0)
      : id_(Tracer::Get().enabled() ? Tracer::Get().Begin(name, request_id)
                                    : -1) {}
  ~Span() {
    if (id_ >= 0) Tracer::Get().End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  int id_;
};

/// Wall time of `fn()` in seconds, inside a span named `name`.
template <typename Fn>
double Timed(const std::string& name, Fn&& fn) {
  Span span(name);
  const double start = Now();
  fn();
  return Now() - start;
}

// ------------------------------------------------------------------ inputs
struct DetectInputs {
  AttributedGraph graph;
  std::vector<uint8_t> labels;
};
/// The pubmed-like registry graph at `scale` with the standard injection
/// (paper §VI-B1), both drawn from `seed`.
Result<DetectInputs> MakeDetectInputs(uint64_t seed, double scale);
/// VGOD as the paper configures it (VBM 10 epochs, ARM 40), seeded.
vgod::detectors::VgodConfig BenchVgodConfig(uint64_t seed);
/// The serve-stream ingest shape, shared with the layer suite's replay. The
/// batch size, the event mix and the compaction threshold are those of the
/// repository's own bench/stream_loadgen at its defaults (32-event batches;
/// 65 % edge toggles, 30 % attribute updates with rows drawn uniformly from
/// [-1, 1], 5 % node appends; compaction every max(64, 32 * 30 / 4) = 240
/// events). Node appends are left out, so the toggles and updates keep
/// their 65 : 30 ratio.
inline constexpr int kEventsPerBatch = 32;
inline constexpr double kToggleShare = 0.65 / 0.95;
inline constexpr int kCompactEvery = 240;
/// vgod_serve's default --max-events, which the replay parses with.
inline constexpr int kMaxEventsPerBatch = 4096;
/// The batch rate is the benchmark's own, set for steadiness: it keeps the
/// server well below saturation, and the fixed rates (30, 37 and 3.7 per
/// second) are incommensurate, so over a phase every offset between the
/// lookup, ingest and subgraph schedules occurs and their overlap does not
/// hinge on one alignment.
inline constexpr double kIngestRps = 37.0;  // /ingest batches per second
/// Dominant with the benchmark's reduced epoch budget.
inline constexpr int kDominantEpochs = 6;
vgod::detectors::DominantConfig BenchDominantConfig(uint64_t seed);

// ----------------------------------------------------------------- checks
// References computed apart from the program (checks.cc).
/// Rank-statistic (Mann-Whitney) AUC with average ranks for ties.
double RankAuc(const std::vector<double>& scores,
               const std::vector<uint8_t>& labels);
/// Paper Eq. 19: z-score both components (population std), then sum.
std::vector<double> RecombineMeanStd(const std::vector<double>& structural,
                                     const std::vector<double>& contextual);
/// Paper Eq. 7-9 in double from the CSR and embedding rows h (n x k):
/// mean over neighbors of ||h_j - mean_i||^2; 0 for isolated nodes.
std::vector<double> NeighborVariance(const AttributedGraph& graph,
                                     const Tensor& h);
/// Largest |a_i - b_i| (inf on a size mismatch or a non-finite value).
double MaxAbsDiff(const std::vector<double>& a, const std::vector<double>& b);
/// Index of the first element whose bits differ, or -1 when identical.
int64_t FirstBitDifference(const std::vector<double>& a,
                           const std::vector<double>& b);

// The checks themselves. The run and the self-test call the same functions,
// so the self-test's perturbations exercise exactly what the run accepts.
/// The benchmark's AUC equals the program's.
bool AucAgrees(double bench_auc, double program_auc);
/// `combined` is the Eq. 19 recombination of the components (1e-9).
bool RecombinationAgrees(const std::vector<double>& structural,
                         const std::vector<double>& contextual,
                         const std::vector<double>& combined);
/// `structural` is neighbor variance of the rows `h` over `graph` (1e-5).
bool NeighborVarianceAgrees(const AttributedGraph& graph, const Tensor& h,
                            const std::vector<double>& structural);
/// A /score reply body names `nodes` in order with exactly the scores
/// `want`, bit for bit.
bool ServedScoresAgree(const std::string& body, const std::vector<int>& nodes,
                       const std::vector<double>& want);
/// An /ingest reply applied `events` events and touched `touched` nodes.
bool IngestReplyAgrees(const std::string& body, size_t events, int touched);
/// A /debug/watchlist reply lists `k` (node, score) rows, each node in the
/// top k of `reference` (neighbor variance) and each score within 1e-5 of
/// its node's reference value.
bool WatchlistAgrees(const std::string& body, const std::vector<double>& reference,
                     int k);

/// The benchmark's own model of the streamed graph: the undirected edge
/// set and attribute rows, updated per event exactly as the wire format
/// specifies. It generates valid event batches and rebuilds the final
/// graph without the program's stream store.
class GraphModel {
 public:
  explicit GraphModel(const AttributedGraph& graph);
  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int Degree(int node) const {
    return static_cast<int>(adjacency_[node].size());
  }
  bool HasEdge(int u, int v) const;
  /// Applies one event; returns the touched-node count the program must
  /// report for it (2 per edge event, degree + 1 per attribute update).
  int Apply(const vgod::stream::GraphEvent& event);
  Result<AttributedGraph> Rebuild() const;

 private:
  std::vector<std::vector<int32_t>> adjacency_;  // sorted rows
  std::vector<std::vector<float>> rows_;
};

/// The serve-stream event schedule: `batches` batches of `per_batch`
/// events, edge toggles (a random pair is added when absent and removed
/// when present) with probability kToggleShare, otherwise attribute
/// updates with a fresh random row.
std::vector<vgod::stream::EventBatch> MakeEventBatches(
    const AttributedGraph& graph, uint64_t seed, int batches, int per_batch);
std::string EventBatchJson(const vgod::stream::EventBatch& batch);

/// Feeds every check one deliberately perturbed value and records, per
/// check, that it rejects it. Returns the number of checks that failed to
/// notice the perturbation (0 = self-test passed).
int RunSelfTest(Report* report);

// ---------------------------------------------------------------- server
struct ServerArgs {
  std::string binary;
  std::string bundle;
  std::string graph;
  bool streaming = false;
  int compact_every = 0;
};

/// vgod_serve as a child process on an ephemeral port. The destructor
/// stops it with SIGTERM and waits for it.
class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  /// Spawns the server and returns once /healthz/ready answers 200.
  Status Start(const ServerArgs& args, double timeout_seconds);
  /// SIGTERM + wait. Returns the exit status (0 = clean drain).
  int Stop();
  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  /// VmHWM of the live process in MiB (0 when unreadable).
  double PeakRssMb() const;

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

/// Blocking one-shot HTTP request on a fresh connection (control traffic:
/// readiness, /metrics scrapes, final checks). Returns the body; `status`
/// receives the HTTP status.
Result<std::string> HttpCall(int port, const std::string& method,
                             const std::string& target,
                             const std::string& body, int* status);
Result<vgod::obs::JsonValue> GetJson(int port, const std::string& target);

/// Difference of two /metrics scrapes.
class MetricsDelta {
 public:
  MetricsDelta(const vgod::obs::JsonValue& before,
               const vgod::obs::JsonValue& after)
      : before_(before), after_(after) {}
  double Gauge(const std::string& name) const;
  double HistCount(const std::string& name) const;
  double HistSum(const std::string& name) const;
  /// Mean of the observations made between the scrapes (0 when none).
  double HistMean(const std::string& name) const;

 private:
  double Field(const char* section, const std::string& name,
               const char* field) const;
  const vgod::obs::JsonValue& before_;
  const vgod::obs::JsonValue& after_;
};

// ------------------------------------------------------------- workloads
/// A workload is the pubmed-like graph at one scale; every run goes through
/// the same three stages (detect, serve-static, serve-stream) on it.
struct RunOptions {
  std::string workload;
  double scale = 1.0;
  uint64_t seed = 1;
  int seconds = 24;
  bool trace = false;
  std::string server_binary;
  std::string workdir;
  std::string outdir;
};

/// Server-side layer figures read from /metrics deltas of one phase.
struct ServerLayers {
  double inline_regions = 0.0;
  double queue_wait_ms = 0.0;
  double batch_assembly_ms = 0.0;
  double score_call_ms = 0.0;
  double score_calls_per_request = 0.0;
  double batch_size_mean = 0.0;
  double parse_ms = 0.0;
  double serialize_ms = 0.0;
  double overhead_ms = 0.0;
  double touched_per_event = 0.0;
  double ingest_server_ms = 0.0;
  // Client-side figures left out of the bounded end-to-end set.
  double ingest_p50_ms = 0.0;
  double ingest_p90_ms = 0.0;
  double static_score_p90_ms = 0.0;
  double stream_score_p90_ms = 0.0;
  double subgraph_p50_ms = 0.0;
  double score_max_rps = 0.0;  // traced run only (rate search)
};

/// State handed from stage to stage within one run.
struct Pipeline {
  DetectInputs inputs;
  /// Fitted by the detect stage; exported as the served bundle.
  std::unique_ptr<vgod::detectors::Vgod> vgod;
  std::string bundle_path;
  std::string graph_path;
  double setup_s = 0.0;      // sum of each stage's median set-up time
  double peak_rss_mb = 0.0;  // largest server VmHWM
  std::vector<vgod::stream::EventBatch> events;  // serve-stream schedule
  ServerLayers server;
};

/// One stage of a run. The runner starts every stage, then interleaves
/// kRounds rounds of each (so a slow spell on a shared machine hits one
/// round of every metric rather than every sample of one), then finishes
/// them: checks and metrics.
class Stage {
 public:
  virtual ~Stage() = default;
  virtual Status Start() = 0;
  virtual Status Round(int round) = 0;
  /// A short measurement the runner takes after every stage's round, so
  /// its samples come from windows spread over the whole run (detect: a
  /// burst of full-graph scores); nothing by default.
  virtual Status Sample() { return Status::Ok(); }
  virtual Status Finish() = 0;
};
inline constexpr int kRounds = 3;

/// detect: set-up, VGOD fit + score, reduced-epoch Dominant fits and the
/// reference checks; Start() also exports the fitted VGOD and the graph
/// for the serve stages.
std::unique_ptr<Stage> MakeDetectStage(const RunOptions& options,
                                       Pipeline* pipeline, Report* report);
/// serve-static: vgod_serve under fixed-rate lookups + inline subgraphs,
/// and a rate search; served scores checked bit for bit.
std::unique_ptr<Stage> MakeStaticStage(const RunOptions& options,
                                       Pipeline* pipeline, Report* report);
/// serve-stream: vgod_serve --streaming under lookups + ingest; the final
/// graph, scores and watchlist checked against the benchmark's rebuild.
std::unique_ptr<Stage> MakeStreamStage(const RunOptions& options,
                                       Pipeline* pipeline, Report* report);
/// Traced run only: times every layer in-process at the workload's shapes
/// and reports the per-layer metrics.
Status RunLayerSuite(const RunOptions& options, const Pipeline& pipeline,
                     Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
