#include "serve/engine.h"

#include <algorithm>
#include <future>
#include <numeric>

#include "core/faultinject.h"
#include "core/parallel.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"
#include "eval/metrics.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/access_log.h"

namespace vgod::serve {
namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double SecondsBetween(std::chrono::steady_clock::time_point start,
                      std::chrono::steady_clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

/// serve.queue.depth, resolved once: set on every admission, dequeue, and
/// refresh completion while mu_ is held, where a by-name registry lookup
/// would build a string and take the registry mutex each time.
obs::Gauge* QueueDepthGauge() {
  static obs::Gauge* depth =
      obs::MetricsRegistry::Global().GetGauge("serve.queue.depth");
  return depth;
}

/// Publishes the engine atomics as serve.engine.* gauges. Gauge Set() is
/// a relaxed atomic store on a cached pointer, cheap enough to call on
/// every update so /metrics (both formats) always agrees with the
/// in-process EngineStats.
void PublishEngineStats(const EngineStats& stats) {
  static obs::Gauge* batches = obs::MetricsRegistry::Global().GetGauge(
      "serve.engine.batches_flushed");
  static obs::Gauge* served = obs::MetricsRegistry::Global().GetGauge(
      "serve.engine.requests_served");
  static obs::Gauge* shed =
      obs::MetricsRegistry::Global().GetGauge("serve.engine.shed");
  batches->Set(static_cast<double>(stats.batches_flushed));
  served->Set(static_cast<double>(stats.requests_served));
  shed->Set(static_cast<double>(stats.shed));
}

/// Records one request's engine-side stage breakdown into the
/// serve.stage.* histograms and closes its cross-thread trace flow
/// (the "f" end of the arrow started at admission).
void ObserveStages(const StageTiming& timing) {
  VGOD_HISTOGRAM_OBSERVE("serve.stage.queue_wait.seconds",
                         timing.queue_wait_seconds);
  VGOD_HISTOGRAM_OBSERVE("serve.stage.score.seconds", timing.score_seconds);
  obs::RecordFlowEvent("serve/request", timing.request_id, /*finish=*/true);
}

/// Stage breakdown of a request admitted at `admitted` and answered by a
/// Score() call that a worker picked up at `picked` and finished at
/// `done`. A request that attached to a refresh after the pick waited in
/// no queue, and one that attached after `done` waited for nothing.
StageTiming TimingFor(uint64_t request_id,
                      std::chrono::steady_clock::time_point admitted,
                      std::chrono::steady_clock::time_point picked,
                      std::chrono::steady_clock::time_point done,
                      int64_t tensor_peak_bytes) {
  const auto started = std::max(admitted, picked);
  return {request_id, SecondsBetween(admitted, started),
          SecondsBetween(started, std::max(started, done)),
          tensor_peak_bytes};
}

/// Adapts a callback-shaped submission to the future-returning shape.
template <typename SubmitFn>
std::future<Result<ScoreResult>> Promised(SubmitFn submit) {
  auto promise = std::make_shared<std::promise<Result<ScoreResult>>>();
  std::future<Result<ScoreResult>> future = promise->get_future();
  submit([promise](Result<ScoreResult> result) {
    promise->set_value(std::move(result));
  });
  return future;
}

/// Runs the detector and validates every emitted score vector before any
/// request sees it. Unsupervised detectors routinely diverge or emit
/// degenerate scores, so the serving layer treats the score vector as
/// untrusted: a non-finite value turns into a structured Internal error
/// (-> HTTP 500) instead of NaNs in response JSON or sort UB downstream.
/// The "serve.score" fault site lets tests force the degenerate case.
/// With `rescore` (streaming refreshes) the detector patches the retained
/// state `base` instead of scoring every row, and returns the new state.
Result<detectors::ScoreUpdate> GuardedScore(
    const detectors::OutlierDetector& detector, const AttributedGraph& graph,
    bool rescore, const detectors::ScoreState* base,
    const detectors::ChangedRows& changed, int64_t* tensor_peak_bytes) {
  obs::BeginThreadMemoryWindow();
  detectors::ScoreUpdate update;
  {
    // The profiler region every /debug/profile attribution hangs off:
    // detector and kernel scopes nest under serve/score on this thread.
    VGOD_SCOPE("serve/score");
    if (rescore) {
      update = detector.ScoreIncremental(graph, base, changed);
    } else {
      update.output = detector.Score(graph);
      update.dirty_rows = graph.num_nodes();
    }
  }
  *tensor_peak_bytes = obs::ThreadMemoryWindowPeak();
  detectors::DetectorOutput& out = update.output;
  if (faults::Enabled() && !out.score.empty()) {
    out.score[0] = faults::MaybeNan("serve.score", out.score[0]);
  }
  Status finite = eval::NonFiniteCheck(out.score, "detector score");
  if (finite.ok()) {
    finite = eval::NonFiniteCheck(out.structural_score, "structural score");
  }
  if (finite.ok()) {
    finite = eval::NonFiniteCheck(out.contextual_score, "contextual score");
  }
  if (!finite.ok()) {
    VGOD_COUNTER_INC("serve.errors.nonfinite_scores");
    return Status::Internal("detector '" + detector.name() +
                            "' produced an unusable score vector (" +
                            finite.message() + ")");
  }
  return update;
}

/// Counts one successful node-lookup refresh as incremental or full and
/// records how many rows it recomputed in the detector's deepest layer.
void ObserveRefresh(const detectors::ScoreUpdate& update) {
  static obs::Histogram* dirty_rows =
      obs::MetricsRegistry::Global().GetHistogram(
          "serve.refresh.dirty_rows",
          {1, 3, 10, 30, 100, 300, 1e3, 3e3, 1e4, 3e4, 1e5, 3e5, 1e6});
  if (update.incremental) {
    VGOD_COUNTER_INC("serve.refresh.incremental");
  } else {
    VGOD_COUNTER_INC("serve.refresh.full");
  }
  dirty_rows->Observe(static_cast<double>(update.dirty_rows));
}

/// Appends the rows `event` changes to `changed` (unsorted until
/// publish). An appended node changes the node count, which makes the
/// next rescore score every row, so it seeds nothing.
void AddSeeds(const stream::GraphEvent& event,
              detectors::ChangedRows* changed) {
  switch (event.type) {
    case stream::EventType::kAddEdge:
    case stream::EventType::kRemoveEdge:
      changed->adjacency.push_back(event.u);
      changed->adjacency.push_back(event.v);
      break;
    case stream::EventType::kUpdateAttributes:
      changed->attributes.push_back(event.node);
      break;
    case stream::EventType::kAddNode:
      break;
  }
}

void SortUnique(std::vector<int>* rows) {
  std::sort(rows->begin(), rows->end());
  rows->erase(std::unique(rows->begin(), rows->end()), rows->end());
}

/// Derives the online scorer's embedding hook from the served detector.
/// VBM (directly or inside VGOD) contributes its fitted Eq. 6 transform
/// and self-loop setting; an unfitted VBM or any other detector falls
/// back to identity embedding over raw attributes — the score definition
/// (neighbor variance) is unchanged, only the feature space differs.
stream::OnlineScorerConfig ScorerConfigFor(
    const detectors::OutlierDetector& detector) {
  stream::OnlineScorerConfig config;
  const detectors::Vbm* vbm = dynamic_cast<const detectors::Vbm*>(&detector);
  if (vbm == nullptr) {
    if (const auto* vgod = dynamic_cast<const detectors::Vgod*>(&detector)) {
      vbm = &vgod->vbm();
    }
  }
  if (vbm != nullptr && vbm->expected_attribute_dim() > 0) {
    config.include_self = vbm->config().self_loop;
    // `vbm` points into the engine-owned detector, which outlives the
    // engine-owned scorer holding this closure.
    config.embed = [vbm](const Tensor& rows) { return vbm->EmbedRows(rows); };
  }
  return config;
}

/// Bumps stream.events.total plus the per-op counter for one applied
/// event. Separate literal call sites so each VGOD_COUNTER_INC caches
/// its registry pointer.
void CountStreamEvent(stream::EventType type) {
  VGOD_COUNTER_INC("stream.events.total");
  switch (type) {
    case stream::EventType::kAddEdge:
      VGOD_COUNTER_INC("stream.events.add_edge");
      break;
    case stream::EventType::kRemoveEdge:
      VGOD_COUNTER_INC("stream.events.remove_edge");
      break;
    case stream::EventType::kAddNode:
      VGOD_COUNTER_INC("stream.events.add_node");
      break;
    case stream::EventType::kUpdateAttributes:
      VGOD_COUNTER_INC("stream.events.update_attributes");
      break;
  }
}

/// Publishes the delta store's current shape as stream.* gauges.
void PublishStreamGauges(const IngestResult& result) {
  static obs::Gauge* nodes =
      obs::MetricsRegistry::Global().GetGauge("stream.nodes");
  static obs::Gauge* delta_ops =
      obs::MetricsRegistry::Global().GetGauge("stream.delta.ops");
  static obs::Gauge* overlay = obs::MetricsRegistry::Global().GetGauge(
      "stream.delta.overlay_edges");
  static obs::Gauge* compactions =
      obs::MetricsRegistry::Global().GetGauge("stream.compactions");
  nodes->Set(static_cast<double>(result.num_nodes));
  delta_ops->Set(static_cast<double>(result.delta_ops));
  overlay->Set(static_cast<double>(result.overlay_edges));
  compactions->Set(static_cast<double>(result.compactions));
}

}  // namespace

ScoringEngine::ScoringEngine(
    std::unique_ptr<detectors::OutlierDetector> detector,
    AttributedGraph graph, EngineConfig config)
    : detector_(std::move(detector)),
      boot_graph_(std::make_shared<const AttributedGraph>(std::move(graph))),
      config_(config) {
  current_graph_ = boot_graph_;
  VGOD_CHECK(detector_ != nullptr) << "ScoringEngine needs a detector";
  VGOD_CHECK(config_.num_threads > 0) << "num_threads must be positive";
  VGOD_CHECK(config_.intra_op_threads >= 0)
      << "intra_op_threads must be >= 0 (0 = leave the global pool alone)";
  VGOD_CHECK(config_.max_queue > 0) << "max_queue must be positive";
}

ScoringEngine::~ScoringEngine() { Shutdown(); }

Status ScoringEngine::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) return Status::FailedPrecondition("engine already started");
  if (stopping_) return Status::FailedPrecondition("engine was shut down");
  // Size the kernel pool before any worker can touch it: Score() calls
  // from the pool below run parallel kernels on the global vgod::par pool.
  if (config_.intra_op_threads > 0) {
    par::SetNumThreads(config_.intra_op_threads);
  }
  started_ = true;
  workers_.reserve(config_.num_threads);
  for (int i = 0; i < config_.num_threads; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::Ok();
}

void ScoringEngine::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) return;
    stopping_ = true;
  }
  cv_.notify_all();
  // Admission closed under mu_ before any worker saw stopping_, and a
  // worker exits only on an empty queue, so once the joins return every
  // admitted request (refresh waiters included) has been answered.
  for (std::thread& worker : workers_) worker.join();
  workers_.clear();
}

Status ScoringEngine::EnableStreaming(StreamingOptions options) {
  if (options.watchlist_k <= 0) {
    return Status::InvalidArgument("watchlist_k must be positive");
  }
  if (options.compact_every < 0) {
    return Status::InvalidArgument("compact_every must be >= 0");
  }
  if (options.max_events_per_batch <= 0) {
    return Status::InvalidArgument("max_events_per_batch must be positive");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_ || stopping_) {
      return Status::FailedPrecondition(
          "EnableStreaming must run before Start()");
    }
  }
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  if (store_ != nullptr) {
    return Status::FailedPrecondition("streaming already enabled");
  }
  if (!boot_graph_->has_attributes()) {
    return Status::FailedPrecondition(
        "streaming requires an attributed resident graph");
  }
  stream_options_ = options;
  auto store = std::make_unique<stream::DeltaGraphStore>(*boot_graph_);
  Result<stream::OnlineScorer> scorer =
      stream::OnlineScorer::Create(store.get(), ScorerConfigFor(*detector_));
  if (!scorer.ok()) return scorer.status();
  store_ = std::move(store);
  scorer_.emplace(std::move(scorer).value());
  return Status::Ok();
}

Result<IngestResult> ScoringEngine::Ingest(const stream::EventBatch& batch,
                                           uint64_t request_id) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "streaming is not enabled on this engine (serve with --streaming)");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_ || stopping_) {
      return Status::FailedPrecondition("engine is not accepting work");
    }
  }
  VGOD_SCOPE("stream/ingest");
  const auto start = std::chrono::steady_clock::now();
  IngestResult result;
  result.request_id = request_id != 0 ? request_id : NextRequestId();

  std::unique_lock<std::mutex> stream_lock(stream_mu_);
  Status valid = store_->ValidateBatch(batch.events);
  if (!valid.ok()) {
    VGOD_COUNTER_INC("stream.ingest.rejected");
    return valid;
  }
  // Interleave store and scorer per event (not store-then-replay): an
  // attribute update's O(deg) fan-out must see the adjacency as of its
  // position in the batch, not the post-batch adjacency.
  for (const stream::GraphEvent& event : batch.events) {
    store_->ApplyOne(event);
    AddSeeds(event, &unpublished_);
    Result<int> touched = scorer_->ApplyOne(event);
    if (!touched.ok()) {
      // Embedder failure mid-batch: the store is ahead of the scorer.
      // Resync before surfacing the error so the two cannot drift.
      VGOD_COUNTER_INC("stream.ingest.rejected");
      Status rebuilt = scorer_->Rebuild();
      if (!rebuilt.ok()) return rebuilt;
      return touched.status();
    }
    result.touched_nodes += touched.value();
    VGOD_HISTOGRAM_OBSERVE("stream.touched_nodes.per_event",
                           static_cast<double>(touched.value()));
    CountStreamEvent(event.type);
  }
  result.events_applied = static_cast<int>(batch.events.size());

  const bool auto_compact =
      stream_options_.compact_every > 0 &&
      store_->delta_ops() >= stream_options_.compact_every;
  if (batch.compact || auto_compact) {
    const auto compact_start = std::chrono::steady_clock::now();
    compacting_.store(true, std::memory_order_release);
    store_->Compact();
    compacting_.store(false, std::memory_order_release);
    result.compacted = true;
    result.compact_seconds = SecondsSince(compact_start);
    VGOD_HISTOGRAM_OBSERVE("stream.compaction.seconds",
                           result.compact_seconds);
  }

  // Publish the post-batch snapshot as a new graph version (pays the
  // materialization here, on the ingest request, so scoring workers only
  // ever swap a pointer). Node requests submitted from here on miss the
  // score cache until a refresh scores this version.
  // The version carries the rows its batch changed (plus any a failed
  // batch left applied), the seeds an incremental refresh starts from.
  std::shared_ptr<const AttributedGraph> snapshot = store_->Snapshot();
  SortUnique(&unpublished_.attributes);
  SortUnique(&unpublished_.adjacency);
  {
    std::lock_guard<std::mutex> graph_lock(graph_mu_);
    current_graph_ = snapshot;
    ++graph_version_;
    seed_rows_ += static_cast<int64_t>(unpublished_.attributes.size() +
                                       unpublished_.adjacency.size());
    seeds_.push_back({graph_version_, std::move(unpublished_)});
    if (seed_rows_ > snapshot->num_nodes()) {
      // Nothing has refreshed for a long run of batches: drop the log
      // rather than grow it, so the next refresh scores every row.
      seeds_.clear();
      seed_rows_ = 0;
      seeds_floor_ = graph_version_;
    }
  }
  unpublished_ = {};

  result.num_nodes = snapshot->num_nodes();
  result.delta_ops = store_->delta_ops();
  result.overlay_edges = store_->overlay_edges();
  result.compactions = store_->compactions();
  result.apply_seconds = SecondsSince(start);
  VGOD_COUNTER_INC("stream.ingest.batches");
  VGOD_HISTOGRAM_OBSERVE("stream.ingest.latency.seconds",
                         result.apply_seconds);
  PublishStreamGauges(result);

  // Watchlist change detection: membership/order of node ids, not
  // scores (scores move on every batch). The callback runs after
  // stream_mu_ is released so it can fan out to the SSE hub without
  // holding an engine lock.
  std::vector<WatchlistEntry> changed_watchlist;
  if (watchlist_callback_) {
    std::vector<WatchlistEntry> top;
    std::vector<int> top_nodes;
    for (const auto& [node, score] :
         scorer_->TopK(stream_options_.watchlist_k)) {
      top.push_back({node, score});
      top_nodes.push_back(node);
    }
    if (top_nodes != last_watchlist_nodes_) {
      last_watchlist_nodes_ = std::move(top_nodes);
      changed_watchlist = std::move(top);
      VGOD_COUNTER_INC("stream.watchlist.changes");
    }
  }
  stream_lock.unlock();
  if (!changed_watchlist.empty()) {
    watchlist_callback_(changed_watchlist);
  }
  return result;
}

Result<std::vector<WatchlistEntry>> ScoringEngine::Watchlist(int k) {
  if (store_ == nullptr) {
    return Status::FailedPrecondition(
        "streaming is not enabled on this engine (serve with --streaming)");
  }
  if (k <= 0) k = stream_options_.watchlist_k;
  std::lock_guard<std::mutex> stream_lock(stream_mu_);
  std::vector<WatchlistEntry> out;
  for (const auto& [node, score] : scorer_->TopK(k)) {
    out.push_back({node, score});
  }
  return out;
}

bool ScoringEngine::Ready(std::string* reason) const {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      *reason = "engine is draining";
      return false;
    }
    if (!started_) {
      *reason = "engine not started";
      return false;
    }
  }
  if (compacting_.load(std::memory_order_acquire)) {
    *reason = "compaction snapshot swap in flight";
    return false;
  }
  return true;
}

std::shared_ptr<const AttributedGraph> ScoringEngine::CurrentGraph() const {
  std::lock_guard<std::mutex> lock(graph_mu_);
  return current_graph_;
}

EngineStats ScoringEngine::stats() const {
  EngineStats stats;
  stats.batches_flushed = score_calls_.load(std::memory_order_relaxed);
  stats.requests_served = requests_served_.load(std::memory_order_relaxed);
  stats.shed = shed_count_.load(std::memory_order_relaxed);
  return stats;
}

Status ScoringEngine::AdmitLocked(Pending* pending, bool waits) {
  pending->admitted = std::chrono::steady_clock::now();
  if (pending->request_id == 0) pending->request_id = NextRequestId();
  VGOD_COUNTER_INC("serve.requests.total");
  if (stopping_ || !started_) {
    return Status::FailedPrecondition("engine is not accepting work");
  }
  if (waits) {
    if (backlog_ >= config_.max_queue) {
      return Status::OutOfRange("scoring queue is full");
    }
    QueueDepthGauge()->Set(static_cast<double>(++backlog_));
  }
  // Flow start on the submitting thread; whichever thread answers records
  // the matching finish, tying the two threads' spans together in the
  // trace viewer.
  obs::RecordFlowEvent("serve/request", pending->request_id,
                       /*finish=*/false);
  return Status::Ok();
}

void ScoringEngine::Reject(Pending* pending, const Status& status) {
  VGOD_COUNTER_INC("serve.requests.rejected");
  // The only OutOfRange admission failure is the full queue.
  if (status.code() == StatusCode::kOutOfRange) {
    shed_count_.fetch_add(1, std::memory_order_relaxed);
    PublishEngineStats(stats());
  }
  pending->callback(status);
}

Status ScoringEngine::ValidateNodes(const std::vector<int>& nodes,
                                    int resident) const {
  // Validate ids up front so a bad request is answered before it can
  // touch the cache or the queue.
  for (int node : nodes) {
    if (node < 0 || node >= resident) {
      VGOD_COUNTER_INC("serve.requests.total");
      VGOD_COUNTER_INC("serve.requests.rejected");
      return Status::OutOfRange(
          "node " + std::to_string(node) + " outside resident graph (0.." +
          std::to_string(resident - 1) + ")");
    }
  }
  return Status::Ok();
}

Status ScoringEngine::ValidateSubgraph(const AttributedGraph& graph) const {
  // The detector's weights are bound to the training attribute schema; a
  // mismatched subgraph would abort deep inside a kernel VGOD_CHECK, so
  // reject it here instead (inductive scoring requires the same schema).
  if (graph.attribute_dim() != boot_graph_->attribute_dim()) {
    VGOD_COUNTER_INC("serve.requests.total");
    VGOD_COUNTER_INC("serve.requests.rejected");
    return Status::InvalidArgument(
        "subgraph attribute dim " + std::to_string(graph.attribute_dim()) +
        " does not match the served model's " +
        std::to_string(boot_graph_->attribute_dim()));
  }
  return Status::Ok();
}

void ScoringEngine::SubmitNodesAsync(std::vector<int> nodes,
                                     uint64_t request_id, ScoreCallback done) {
  int resident = 0;
  uint64_t version = 0;
  {
    std::lock_guard<std::mutex> graph_lock(graph_mu_);
    resident = current_graph_->num_nodes();
    version = graph_version_;
  }
  // Validated against the snapshot of `version`. Whatever answers has
  // scored that version or a newer one, and streaming only ever grows the
  // node set, so every id indexes the output in range.
  const Status valid = ValidateNodes(nodes, resident);
  if (!valid.ok()) {
    done(valid);
    return;
  }
  Pending pending{std::move(nodes), nullptr, std::move(done), request_id, {}};
  std::shared_ptr<const detectors::DetectorOutput> hit;
  bool queued_refresh = false;
  Status admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    // A newer cached version also answers: it was published after this
    // request read `version`, so it still reflects every earlier ingest.
    const bool cached = cached_ != nullptr && cached_version_ >= version;
    admitted = AdmitLocked(&pending, /*waits=*/!cached);
    if (admitted.ok()) {
      if (cached) {
        hit = cached_;
      } else {
        // Single flight: the first miss of a version queues its refresh,
        // later misses wait on it.
        auto [entry, fresh] = refreshing_.try_emplace(version);
        entry->second.push_back(std::move(pending));
        if (fresh) {
          queue_.push_back(Job{std::nullopt, version});
          queued_refresh = true;
        }
      }
    }
  }
  if (!admitted.ok()) {
    Reject(&pending, admitted);
  } else if (hit != nullptr) {
    AnswerNodes(&pending, *hit, StageTiming{pending.request_id});
  } else if (queued_refresh) {
    cv_.notify_one();
  }
}

void ScoringEngine::SubmitGraphAsync(AttributedGraph graph,
                                     uint64_t request_id, ScoreCallback done) {
  const Status valid = ValidateSubgraph(graph);
  if (!valid.ok()) {
    done(valid);
    return;
  }
  Pending pending{{},
                  std::make_shared<const AttributedGraph>(std::move(graph)),
                  std::move(done), request_id, {}};
  Status admitted;
  {
    std::lock_guard<std::mutex> lock(mu_);
    admitted = AdmitLocked(&pending, /*waits=*/true);
    if (admitted.ok()) queue_.push_back(Job{std::move(pending), 0});
  }
  if (!admitted.ok()) {
    Reject(&pending, admitted);
    return;
  }
  cv_.notify_one();
}

Result<ScoreResult> ScoringEngine::ScoreNodes(std::vector<int> nodes,
                                              uint64_t request_id) {
  return Promised([&](ScoreCallback done) {
           SubmitNodesAsync(std::move(nodes), request_id, std::move(done));
         })
      .get();
}

Result<ScoreResult> ScoringEngine::ScoreGraph(AttributedGraph graph,
                                              uint64_t request_id) {
  return Promised([&](ScoreCallback done) {
           SubmitGraphAsync(std::move(graph), request_id, std::move(done));
         })
      .get();
}

void ScoringEngine::WorkerLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // Stopping, and drained.
    Job job = std::move(queue_.front());
    queue_.pop_front();
    // A running subgraph no longer waits; refresh waiters still do until
    // their refresh completes.
    if (job.subgraph_request) {
      QueueDepthGauge()->Set(static_cast<double>(--backlog_));
    }
    lock.unlock();
    RunJob(std::move(job));
    lock.lock();
  }
}

void ScoringEngine::FinishRequest(Pending* pending,
                                  Result<ScoreResult> result,
                                  const StageTiming& timing) {
  ObserveStages(timing);
  VGOD_HISTOGRAM_OBSERVE("serve.request.latency.seconds",
                         SecondsSince(pending->admitted));
  VGOD_COUNTER_INC("serve.requests.completed");
  pending->callback(std::move(result));
  requests_served_.fetch_add(1, std::memory_order_relaxed);
  PublishEngineStats(stats());
}

void ScoringEngine::AnswerNodes(Pending* pending,
                                const detectors::DetectorOutput& out,
                                const StageTiming& timing) {
  ScoreResult result;
  result.timing = timing;
  result.nodes = std::move(pending->nodes);
  result.score.reserve(result.nodes.size());
  for (int node : result.nodes) result.score.push_back(out.score[node]);
  if (out.has_components()) {
    result.structural.reserve(result.nodes.size());
    result.contextual.reserve(result.nodes.size());
    for (int node : result.nodes) {
      result.structural.push_back(out.structural_score[node]);
      result.contextual.push_back(out.contextual_score[node]);
    }
  }
  FinishRequest(pending, std::move(result), timing);
}

detectors::ChangedRows ScoringEngine::SeedsAfterLocked(
    uint64_t base_version) const {
  detectors::ChangedRows changed;
  for (const VersionSeeds& seeds : seeds_) {
    if (seeds.version <= base_version) continue;
    changed.attributes =
        detectors::UnionRows(changed.attributes, seeds.rows.attributes);
    changed.adjacency =
        detectors::UnionRows(changed.adjacency, seeds.rows.adjacency);
  }
  return changed;
}

void ScoringEngine::InstallState(
    std::shared_ptr<const detectors::ScoreState> state, uint64_t version) {
  std::lock_guard<std::mutex> graph_lock(graph_mu_);
  if (state_ != nullptr && version <= state_version_) return;
  state_ = std::move(state);
  state_version_ = version;
  while (!seeds_.empty() && seeds_.front().version <= version) {
    seed_rows_ -= static_cast<int64_t>(seeds_.front().rows.attributes.size() +
                                       seeds_.front().rows.adjacency.size());
    seeds_.pop_front();
  }
}

void ScoringEngine::RunJob(Job job) {
  VGOD_SCOPE(job.subgraph_request ? "serve/subgraph" : "serve/refresh");
  std::shared_ptr<const AttributedGraph> graph;
  uint64_t version = 0;  // Of `graph`, for a refresh.
  // A streaming refresh patches the newest retained state (never in
  // place: another worker may be patching the same base for a different
  // version) with the seeds of every version published since.
  const bool rescore = !job.subgraph_request && store_ != nullptr;
  std::shared_ptr<const detectors::ScoreState> base;
  detectors::ChangedRows changed;
  if (job.subgraph_request) {
    graph = std::move(job.subgraph_request->subgraph);
  } else {
    // Score the latest published version rather than the one the waiters
    // read: it is at least as new, so it answers them all, and a queued
    // refresh pins no snapshot that ingest has since replaced.
    std::lock_guard<std::mutex> graph_lock(graph_mu_);
    graph = current_graph_;
    version = graph_version_;
    if (rescore && state_ != nullptr && state_version_ >= seeds_floor_) {
      base = state_;
      changed = SeedsAfterLocked(state_version_);
    }
  }
  const auto picked = std::chrono::steady_clock::now();
  int64_t tensor_peak_bytes = 0;
  Result<detectors::ScoreUpdate> guarded =
      GuardedScore(*detector_, *graph, rescore, base.get(), changed,
                   &tensor_peak_bytes);
  const auto done = std::chrono::steady_clock::now();
  VGOD_HISTOGRAM_OBSERVE("serve.score.latency.seconds",
                         SecondsBetween(picked, done));
  score_calls_.fetch_add(1, std::memory_order_relaxed);

  if (job.subgraph_request) {
    Pending& pending = *job.subgraph_request;
    const StageTiming timing = TimingFor(pending.request_id, pending.admitted,
                                         picked, done, tensor_peak_bytes);
    if (!guarded.ok()) {
      FinishRequest(&pending, guarded.status(), timing);
      return;
    }
    detectors::DetectorOutput out = std::move(guarded.value().output);
    ScoreResult result;
    result.timing = timing;
    result.nodes.resize(graph->num_nodes());
    std::iota(result.nodes.begin(), result.nodes.end(), 0);
    result.score = std::move(out.score);
    result.structural = std::move(out.structural_score);
    result.contextual = std::move(out.contextual_score);
    FinishRequest(&pending, std::move(result), timing);
    return;
  }

  std::shared_ptr<const detectors::DetectorOutput> out;
  if (guarded.ok()) {
    ObserveRefresh(guarded.value());
    // Errors install nothing: a poisoned refresh leaves the older state
    // as the base, and the next refresh re-applies this one's seeds.
    if (guarded.value().state != nullptr) {
      InstallState(std::move(guarded.value().state), version);
    }
    out = std::make_shared<const detectors::DetectorOutput>(
        std::move(guarded.value().output));
  }
  std::vector<Pending> waiters;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto entry = refreshing_.find(job.version);
    waiters = std::move(entry->second);
    refreshing_.erase(entry);
    backlog_ -= static_cast<int>(waiters.size());
    QueueDepthGauge()->Set(static_cast<double>(backlog_));
    // Errors are never cached, and a refresh that finishes after a newer
    // version's never replaces it.
    if (out != nullptr && (cached_ == nullptr || version > cached_version_)) {
      cached_ = out;
      cached_version_ = version;
    }
  }
  for (Pending& pending : waiters) {
    const StageTiming timing = TimingFor(pending.request_id, pending.admitted,
                                         picked, done, tensor_peak_bytes);
    if (out == nullptr) {
      FinishRequest(&pending, guarded.status(), timing);
    } else {
      AnswerNodes(&pending, *out, timing);
    }
  }
}

}  // namespace vgod::serve
