#ifndef VGOD_SERVE_ENGINE_H_
#define VGOD_SERVE_ENGINE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "detectors/detector.h"
#include "graph/graph.h"
#include "obs/fingerprint.h"
#include "stream/delta_graph.h"
#include "stream/events.h"
#include "stream/online_scorer.h"

namespace vgod::serve {

/// Threading/admission knobs of the scoring engine (docs/SERVING.md,
/// docs/PARALLELISM.md for how the two thread pools compose).
struct EngineConfig {
  /// Worker threads executing detector Score() calls.
  int num_threads = 2;
  /// Intra-op kernel threads (vgod::par pool width) applied at Start().
  /// 0 leaves the global pool as configured (VGOD_NUM_THREADS or
  /// hardware_concurrency). Pick num_threads * intra_op_threads <= cores:
  /// the kernel pool runs one region at a time and concurrent scoring
  /// threads fall back to serial kernels, so request-level and
  /// kernel-level parallelism never oversubscribe.
  int intra_op_threads = 0;
  /// Admitted-but-unanswered requests beyond this depth (queued subgraph
  /// requests plus node requests waiting for a score refresh) are
  /// rejected: load shedding, so a burst degrades to fast 503s instead of
  /// unbounded latency.
  int max_queue = 1024;
};

/// Per-request stage timing filled in by the engine. The HTTP layer adds
/// parse/serialize on top (docs/OBSERVABILITY.md "Request lifecycle").
/// A node request answered from the score cache has both stages at 0.
struct StageTiming {
  uint64_t request_id = 0;
  /// Admission -> a worker picking up the job that answers the request
  /// (the subgraph's own job, or a node request's score refresh; 0 when
  /// the request attached to a refresh that was already running).
  double queue_wait_seconds = 0.0;
  /// Subgraph: its detector Score() call. Node request: the rest of its
  /// wait for its graph version's scores.
  double score_seconds = 0.0;
  /// High-water mark of net tensor allocations on the scoring thread
  /// during the Score() call that answered this request (shared by every
  /// node request of one refresh; 0 on a cache hit).
  int64_t tensor_peak_bytes = 0;
};

/// Streaming-ingest knobs (docs/STREAMING.md). Streaming is off by
/// default; ScoringEngine::EnableStreaming turns it on before Start().
struct StreamingOptions {
  /// Watchlist size served by GET /debug/watchlist (?k= can ask smaller).
  int watchlist_k = 10;
  /// Auto-compaction threshold: when an ingest batch leaves at least this
  /// many applied-but-uncompacted events in the delta overlay, the engine
  /// compacts before answering. 0 disables auto-compaction (batches can
  /// still request one explicitly with {"compact":true}).
  int compact_every = 4096;
  /// Per-request event cap (hostile-input bound, docs/ROBUSTNESS.md).
  int max_events_per_batch = 4096;
};

/// What one accepted ingest batch did, echoed as the POST /ingest
/// response body.
struct IngestResult {
  uint64_t request_id = 0;
  int events_applied = 0;
  /// Incremental score recomputations across the batch — the O(deg)
  /// cost certificate (stream.touched_nodes.per_event histogram).
  int touched_nodes = 0;
  bool compacted = false;
  int num_nodes = 0;
  int64_t delta_ops = 0;       // Outstanding overlay events post-batch.
  int64_t overlay_edges = 0;
  int64_t compactions = 0;     // Lifetime compaction count.
  double apply_seconds = 0.0;  // Whole batch: validate+apply+snapshot.
  double compact_seconds = 0.0;
};

/// One watchlist row: a current top-k outlier by online score.
struct WatchlistEntry {
  int node = -1;
  double score = 0.0;
};

/// Scores for the nodes a request asked about, row-aligned with `nodes`.
/// Component scores are present when the detector separates them.
struct ScoreResult {
  std::vector<int> nodes;
  std::vector<double> score;
  std::vector<double> structural;
  std::vector<double> contextual;
  StageTiming timing;
};

/// In-process engine counters, also exported as serve.engine.* gauges on
/// every registry scrape path (/metrics JSON and Prometheus alike).
struct EngineStats {
  int64_t batches_flushed = 0;   // Refreshes plus subgraph scores.
  int64_t requests_served = 0;   // Requests answered (ok or error).
  int64_t shed = 0;              // Queue-full load-shedding rejections.
};

/// Owns a fitted detector and a resident graph behind a fixed worker pool
/// with a bounded job queue.
///
/// Two request shapes:
///  * node requests — score node ids of the resident graph. The detector
///    is transductive (one score per node per graph), so the engine
///    refreshes the scores once per published graph version and answers
///    every node request of that version by indexing the cached output:
///    a hit answers inline on the submitting thread; a miss attaches to
///    the single in-flight refresh job for the current version. Without
///    streaming a refresh is a full-graph Score(). With streaming it is
///    ScoreIncremental(): it patches a copy of the state retained from the
///    newest refreshed version, recomputing only the rows the intervening
///    ingest batches can reach, bit-identical to a full Score().
///  * subgraph requests — score a request-supplied graph (the inductive
///    deployment shape). One Score() call per request.
///
/// Invariants:
///  * read-your-writes — a node request submitted after Ingest() returned
///    is answered from that batch's snapshot or a newer one; it never
///    attaches to a refresh of an older version, and an older output is
///    never installed over a newer one.
///  * no pinning — the cache holds one DetectorOutput keyed by version
///    number, never a graph snapshot, and a refresh takes the latest
///    snapshot only when a worker starts it, so a retired N x D snapshot
///    is freed once no running Score() call uses it.
///  * errors are not cached — a refresh that fails (e.g. non-finite
///    scores) answers its waiters with the error and installs nothing,
///    neither scores nor retained state.
///
/// Scores are computed by the same per-row code the offline Score() runs,
/// so served values are bit-identical to in-process scoring.
class ScoringEngine {
 public:
  /// Completion hook of the *Async submission shape. Invoked exactly once
  /// — inline on the submitting thread for fast-fail rejections
  /// (validation, full queue, stopped engine) and score-cache hits,
  /// otherwise on the worker that ran the request's Score() call. The
  /// epoll transport rides this: its dispatch worker returns immediately
  /// and the HTTP Responder fires from inside the callback.
  using ScoreCallback = std::function<void(Result<ScoreResult>)>;

  /// Takes ownership of a fitted (or bundle-restored) detector and the
  /// resident graph it serves.
  ScoringEngine(std::unique_ptr<detectors::OutlierDetector> detector,
                AttributedGraph graph, EngineConfig config = {});
  ~ScoringEngine();

  ScoringEngine(const ScoringEngine&) = delete;
  ScoringEngine& operator=(const ScoringEngine&) = delete;

  /// Spawns the worker pool. Fails if already started or shut down.
  Status Start();

  /// Turns on the streaming subsystem (src/stream/): a DeltaGraphStore
  /// seeded from the resident graph plus an OnlineScorer whose embedder
  /// is derived from the detector (VBM/VGOD use the fitted Eq. 6
  /// transform; anything else scores raw attributes). Must run before
  /// Start(). After this, Ingest() mutates the resident graph and /score
  /// requests see the latest published snapshot.
  Status EnableStreaming(StreamingOptions options = {});
  bool streaming_enabled() const { return store_ != nullptr; }
  const StreamingOptions& streaming_options() const {
    return stream_options_;
  }

  /// Applies one pre-parsed event batch: all-or-nothing validation, then
  /// per-event store+scorer updates, optional compaction, and a
  /// copy-on-write snapshot swap that in-flight scoring never observes
  /// half-done. Thread-safe (serialized on the stream mutex).
  Result<IngestResult> Ingest(const stream::EventBatch& batch,
                              uint64_t request_id = 0);

  /// Current top-k online outliers, descending by score. `k` <= 0 uses
  /// the configured watchlist_k. Fails when streaming is off.
  Result<std::vector<WatchlistEntry>> Watchlist(int k = 0);

  /// Hook fired from Ingest() when a batch changed the watchlist's
  /// membership or ordering (node ids, not scores — scores move every
  /// batch). Invoked on the ingesting thread with no engine lock held,
  /// so the callback may call back into the server (SSE publish) but
  /// must not re-enter the engine's streaming API. Set before Start().
  using WatchlistChangeCallback =
      std::function<void(const std::vector<WatchlistEntry>&)>;
  void SetWatchlistChangeCallback(WatchlistChangeCallback callback) {
    watchlist_callback_ = std::move(callback);
  }

  /// Baseline model fingerprint restored from the bundle (training-score
  /// sketch + attribute moments + degree histogram), or null when the
  /// bundle predates fingerprints. Set once by BuildEngine before
  /// Start(); the drift monitor seeds its baseline from this.
  void SetFingerprint(std::shared_ptr<const obs::ModelFingerprint> fp) {
    fingerprint_ = std::move(fp);
  }
  const std::shared_ptr<const obs::ModelFingerprint>& fingerprint() const {
    return fingerprint_;
  }

  /// Readiness (distinct from liveness): false while not yet started,
  /// draining, or a compaction snapshot swap is in flight, with a
  /// human-readable reason. GET /healthz/ready maps false to 503.
  bool Ready(std::string* reason) const;

  /// The graph /score currently scores: the boot graph until streaming
  /// ingest publishes a newer snapshot. Snapshots are immutable; holding
  /// the returned pointer pins that version, nothing more.
  std::shared_ptr<const AttributedGraph> CurrentGraph() const;

  /// Graceful shutdown: rejects new submissions, drains every queued job
  /// (so every admitted request, refresh waiters included, is answered),
  /// joins the workers. Idempotent.
  void Shutdown();

  /// Scores node ids of the resident graph. `done` fires once with the
  /// result: inline on a score-cache hit or a fast-fail rejection (invalid
  /// node ids, full queue, stopped engine), otherwise from the refresh job
  /// that scores the current graph version. `request_id` tags the
  /// request's StageTiming, access-log line, and trace flow events; 0
  /// lets the engine assign one (NextRequestId).
  void SubmitNodesAsync(std::vector<int> nodes, uint64_t request_id,
                        ScoreCallback done);
  /// Queues a request to score `graph` (scores every node of it).
  void SubmitGraphAsync(AttributedGraph graph, uint64_t request_id,
                        ScoreCallback done);

  /// Blocking forms of the *Async calls (same validation, cache, and
  /// error taxonomy).
  Result<ScoreResult> ScoreNodes(std::vector<int> nodes,
                                 uint64_t request_id = 0);
  Result<ScoreResult> ScoreGraph(AttributedGraph graph,
                                 uint64_t request_id = 0);

  const detectors::OutlierDetector& detector() const { return *detector_; }
  /// The boot-time resident graph. Stable for the engine's lifetime even
  /// under streaming (ingest publishes new snapshots via CurrentGraph();
  /// it never mutates or retires this one).
  const AttributedGraph& graph() const { return *boot_graph_; }
  const EngineConfig& config() const { return config_; }

  /// Detector scoring calls so far (refreshes plus subgraphs).
  int64_t score_calls() const {
    return score_calls_.load(std::memory_order_relaxed);
  }
  /// Requests answered so far (successfully or not).
  int64_t requests_served() const {
    return requests_served_.load(std::memory_order_relaxed);
  }
  /// All engine counters in one read (mirrors the serve.engine.* gauges).
  EngineStats stats() const;

 private:
  /// One admitted request awaiting its answer.
  struct Pending {
    std::vector<int> nodes;                           // Node request.
    std::shared_ptr<const AttributedGraph> subgraph;  // Subgraph request.
    ScoreCallback callback;
    uint64_t request_id = 0;
    std::chrono::steady_clock::time_point admitted;
  };
  /// One queue entry, one Score() call: a subgraph request, or (with no
  /// request) the refresh answering the node requests that wait on graph
  /// version `version` in refreshing_.
  struct Job {
    std::optional<Pending> subgraph_request;
    uint64_t version = 0;
  };

  /// Admission under mu_: Ok, or why the request is turned away. Stamps
  /// the request and counts it in serve.requests.total either way. Only a
  /// request that `waits` (anything but a cache hit) takes a backlog slot,
  /// so only those can be shed.
  Status AdmitLocked(Pending* pending, bool waits);
  /// Counts a rejection from AdmitLocked and delivers it to the caller.
  void Reject(Pending* pending, const Status& status);
  /// Fast-fail validation shared by both submission shapes; a failure is
  /// counted as a rejected request.
  Status ValidateNodes(const std::vector<int>& nodes, int resident) const;
  Status ValidateSubgraph(const AttributedGraph& graph) const;
  void WorkerLoop();
  void RunJob(Job job);
  /// Union of the seeds of every version after `base_version`
  /// (graph_mu_ held).
  detectors::ChangedRows SeedsAfterLocked(uint64_t base_version) const;
  /// Installs the retained state of graph `version` unless a newer one is
  /// installed, and drops the seeds it has absorbed.
  void InstallState(std::shared_ptr<const detectors::ScoreState> state,
                    uint64_t version);
  /// Answers one node request from `out` (the scores of its version).
  void AnswerNodes(Pending* pending, const detectors::DetectorOutput& out,
                   const StageTiming& timing);
  void FinishRequest(Pending* pending, Result<ScoreResult> result,
                     const StageTiming& timing);

  const std::unique_ptr<detectors::OutlierDetector> detector_;
  const std::shared_ptr<const AttributedGraph> boot_graph_;
  const EngineConfig config_;

  // --- Streaming state (null/idle when streaming is off) ---
  // Lock order: mu_ and stream_mu_ are never held together; stream_mu_
  // may take graph_mu_; graph_mu_ is a leaf.
  StreamingOptions stream_options_;
  std::mutex stream_mu_;  // Serializes store_/scorer_ access.
  std::unique_ptr<stream::DeltaGraphStore> store_;
  std::optional<stream::OnlineScorer> scorer_;
  /// Rows changed by events applied to store_ but not yet published as a
  /// version (stream_mu_).
  detectors::ChangedRows unpublished_;
  /// Watchlist node ids as of the last ingest batch (stream_mu_), the
  /// change-detection baseline for watchlist_callback_.
  std::vector<int> last_watchlist_nodes_;
  WatchlistChangeCallback watchlist_callback_;  // Set before Start().
  std::shared_ptr<const obs::ModelFingerprint> fingerprint_;
  mutable std::mutex graph_mu_;  // Guards the graph versions below.
  std::shared_ptr<const AttributedGraph> current_graph_;
  /// Bumped by every Ingest() publish; the boot graph is version 0.
  uint64_t graph_version_ = 0;
  /// The rows one published version's ingest changed.
  struct VersionSeeds {
    uint64_t version = 0;
    detectors::ChangedRows rows;
  };
  /// Seeds of the versions after state_version_, oldest first, and their
  /// total row count. When that count passes the node count the log is
  /// dropped and seeds_floor_ set: no state older than the floor can be
  /// patched, so the next refresh scores every row.
  std::deque<VersionSeeds> seeds_;
  int64_t seed_rows_ = 0;
  uint64_t seeds_floor_ = 0;
  /// Retained detector state of graph version state_version_, the base of
  /// the next streaming refresh; null until the first refresh, and always
  /// null when streaming is off.
  std::shared_ptr<const detectors::ScoreState> state_;
  uint64_t state_version_ = 0;
  /// True while a compaction snapshot swap is in flight (readiness gate).
  std::atomic<bool> compacting_{false};

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Job> queue_;
  /// Admitted requests still waiting — queued subgraphs plus refresh
  /// waiters: the depth max_queue bounds (serve.queue.depth).
  int backlog_ = 0;
  /// Node requests waiting on the in-flight refresh of each version.
  std::map<uint64_t, std::vector<Pending>> refreshing_;
  /// Scores of graph version cached_version_; null until the first
  /// refresh succeeds.
  std::shared_ptr<const detectors::DetectorOutput> cached_;
  uint64_t cached_version_ = 0;
  std::vector<std::thread> workers_;
  bool started_ = false;
  bool stopping_ = false;
  // Atomics, not mutex-guarded ints: bumped from every pool worker on the
  // request hot path, where taking mu_ would contend with the job queue.
  std::atomic<int64_t> score_calls_{0};
  std::atomic<int64_t> requests_served_{0};
  std::atomic<int64_t> shed_count_{0};
};

}  // namespace vgod::serve

#endif  // VGOD_SERVE_ENGINE_H_
