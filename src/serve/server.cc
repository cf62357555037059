#include "serve/server.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <thread>

#include "core/faultinject.h"
#include "core/logging.h"
#include "datasets/io.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "obs/fingerprint.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "serve/access_log.h"
#include "stream/events.h"

namespace vgod::serve {
namespace {

/// Set while a /debug/profile window is open. The profile tree and its
/// switch are process-wide, so one window at a time, across all servers.
std::atomic<bool> g_profile_window_open{false};

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

int64_t SecondsToMicros(double seconds) {
  return static_cast<int64_t>(seconds * 1e6);
}

/// Copies the engine's stage breakdown into the request's access record
/// (seconds -> integer microseconds, the log's unit).
void RecordEngineTiming(const StageTiming& timing, AccessRecord* record) {
  record->tensor_peak_bytes = timing.tensor_peak_bytes;
  record->queue_wait_us = SecondsToMicros(timing.queue_wait_seconds);
  record->score_us = SecondsToMicros(timing.score_seconds);
}

void AppendScoreArray(std::string* out, const char* key,
                      const std::vector<double>& values) {
  out->append(",\"");
  out->append(key);
  out->append("\":[");
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out->push_back(',');
    obs::AppendJsonNumber(out, values[i]);
  }
  out->push_back(']');
}

std::string ScoreResultJson(const ScoreResult& result) {
  std::string out =
      "{\"request_id\":" + std::to_string(result.timing.request_id) +
      ",\"nodes\":[";
  for (size_t i = 0; i < result.nodes.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += std::to_string(result.nodes[i]);
  }
  out.push_back(']');
  AppendScoreArray(&out, "scores", result.score);
  if (!result.structural.empty()) {
    AppendScoreArray(&out, "structural", result.structural);
  }
  if (!result.contextual.empty()) {
    AppendScoreArray(&out, "contextual", result.contextual);
  }
  out.push_back('}');
  return out;
}

std::string IngestResultJson(const IngestResult& result) {
  std::string out =
      "{\"request_id\":" + std::to_string(result.request_id) +
      ",\"events_applied\":" + std::to_string(result.events_applied) +
      ",\"touched_nodes\":" + std::to_string(result.touched_nodes) +
      ",\"compacted\":" + (result.compacted ? "true" : "false") +
      ",\"num_nodes\":" + std::to_string(result.num_nodes) +
      ",\"delta_ops\":" + std::to_string(result.delta_ops) +
      ",\"overlay_edges\":" + std::to_string(result.overlay_edges) +
      ",\"compactions\":" + std::to_string(result.compactions) +
      ",\"apply_us\":" +
      std::to_string(SecondsToMicros(result.apply_seconds)) +
      ",\"compact_us\":" +
      std::to_string(SecondsToMicros(result.compact_seconds)) + "}";
  return out;
}

std::string WatchlistJson(const std::vector<WatchlistEntry>& entries) {
  std::string out = "{\"watchlist\":[";
  for (size_t i = 0; i < entries.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "{\"node\":" + std::to_string(entries[i].node) + ",\"score\":";
    obs::AppendJsonNumber(&out, entries[i].score);
    out.push_back('}');
  }
  out += "]}";
  return out;
}

HttpResponse ErrorResponse(int status, const std::string& message) {
  CountHttpError(status);
  HttpResponse response;
  response.status = status;
  response.body = "{\"error\":";
  obs::AppendJsonString(&response.body, message);
  response.body.push_back('}');
  return response;
}

int StatusToHttp(const Status& status) {
  switch (status.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
      return 400;
    case StatusCode::kOutOfRange:         // Bad node id or full queue.
    case StatusCode::kFailedPrecondition: // Engine draining.
      return status.message().find("queue") != std::string::npos ||
                     status.message().find("accepting") != std::string::npos
                 ? 503
                 : 400;
    default:
      return 500;
  }
}

/// Error response for a failed engine call; flags queue-full rejections
/// as load shedding in the access record.
HttpResponse ScoreError(const Status& status, AccessRecord* record) {
  const int http = StatusToHttp(status);
  record->shed =
      http == 503 && status.message().find("queue") != std::string::npos;
  return ErrorResponse(http, status.message());
}

/// Serializes a successful score result, timing the serialize stage.
HttpResponse SerializeResult(const ScoreResult& result,
                             AccessRecord* record) {
  const auto serialize_start = std::chrono::steady_clock::now();
  HttpResponse response = HttpResponse::Json(200, ScoreResultJson(result));
  record->serialize_us = MicrosSince(serialize_start);
  VGOD_HISTOGRAM_OBSERVE("serve.stage.serialize.seconds",
                         record->serialize_us * 1e-6);
  return response;
}

/// Parses the inline-subgraph request body:
///   {"num_nodes":N, "edges":[[u,v],...], "attributes":[[...],...],
///    "undirected":true}
Result<AttributedGraph> ParseInlineGraph(const obs::JsonValue& spec) {
  if (!spec.is_object()) {
    return Status::InvalidArgument("'graph' must be an object");
  }
  const obs::JsonValue& num_nodes = spec.at("num_nodes");
  if (!num_nodes.is_number() || num_nodes.number() < 1) {
    return Status::InvalidArgument("graph needs a positive 'num_nodes'");
  }
  const int n = static_cast<int>(num_nodes.number());

  std::vector<std::pair<int, int>> edges;
  const obs::JsonValue& edge_spec = spec.at("edges");
  if (edge_spec.is_array()) {
    edges.reserve(edge_spec.array().size());
    for (const obs::JsonValue& edge : edge_spec.array()) {
      if (!edge.is_array() || edge.array().size() != 2 ||
          !edge.array()[0].is_number() || !edge.array()[1].is_number()) {
        return Status::InvalidArgument("each edge must be [u, v]");
      }
      edges.emplace_back(static_cast<int>(edge.array()[0].number()),
                         static_cast<int>(edge.array()[1].number()));
    }
  }

  const obs::JsonValue& attr_spec = spec.at("attributes");
  if (!attr_spec.is_array() ||
      attr_spec.array().size() != static_cast<size_t>(n)) {
    return Status::InvalidArgument(
        "graph needs 'attributes' with one row per node");
  }
  const size_t dim = attr_spec.array().empty()
                         ? 0
                         : attr_spec.array()[0].array().size();
  if (dim == 0) {
    return Status::InvalidArgument("attribute rows must be non-empty");
  }
  Tensor attributes(n, static_cast<int>(dim));
  for (int i = 0; i < n; ++i) {
    const obs::JsonValue& row = attr_spec.array()[i];
    if (!row.is_array() || row.array().size() != dim) {
      return Status::InvalidArgument("attribute row " + std::to_string(i) +
                                     " has the wrong width");
    }
    for (size_t j = 0; j < dim; ++j) {
      if (!row.array()[j].is_number()) {
        return Status::InvalidArgument("attributes must be numbers");
      }
      attributes.SetAt(i, static_cast<int>(j),
                       static_cast<float>(row.array()[j].number()));
    }
  }

  const obs::JsonValue& undirected = spec.at("undirected");
  const bool make_undirected =
      undirected.is_bool() ? undirected.boolean() : true;
  return AttributedGraph::FromEdgeList(n, edges, std::move(attributes),
                                       make_undirected);
}

/// Monotonic seconds since the first call — the injected "now" shared by
/// the drift window and the alert state machines.
double MonotonicSeconds() {
  static const auto start = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Normalized log2 degree histogram of the served graph snapshot — the
/// structural-drift input the monitor loop refreshes each tick.
std::vector<double> SnapshotDegreeHistogram(const AttributedGraph& graph) {
  std::vector<int64_t> degrees(static_cast<size_t>(graph.num_nodes()));
  for (int node = 0; node < graph.num_nodes(); ++node) {
    degrees[static_cast<size_t>(node)] = graph.Degree(node);
  }
  return obs::DegreeHistogram(degrees);
}

/// Cumulative per-type ingest event counts, read from the stream.events.*
/// counters the ingest path already maintains. Order matches
/// DriftMonitor::RecordEventCounts documentation.
std::vector<int64_t> CumulativeEventCounts() {
  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::vector<int64_t> counts;
  for (const char* name :
       {"stream.events.add_edge", "stream.events.remove_edge",
        "stream.events.add_node", "stream.events.update_attributes"}) {
    Result<double> value = registry.ReadValue(name);
    counts.push_back(value.ok() ? static_cast<int64_t>(value.value()) : 0);
  }
  return counts;
}

}  // namespace

Result<std::unique_ptr<ScoringEngine>> BuildEngine(
    const std::string& bundle_path, const std::string& graph_path,
    const EngineConfig& config) {
  // The sizes come from command-line flags; refuse bad ones here instead
  // of tripping the engine constructor's invariant CHECKs.
  if (config.num_threads < 1) {
    return Status::InvalidArgument("engine threads must be >= 1, got " +
                                   std::to_string(config.num_threads));
  }
  if (config.intra_op_threads < 0) {
    return Status::InvalidArgument("intra-op threads must be >= 0, got " +
                                   std::to_string(config.intra_op_threads));
  }
  if (config.max_queue < 1) {
    return Status::InvalidArgument("max queue must be >= 1, got " +
                                   std::to_string(config.max_queue));
  }
  Result<detectors::ModelBundle> bundle =
      detectors::LoadBundle(bundle_path);
  if (!bundle.ok()) return bundle.status();
  Result<std::unique_ptr<detectors::OutlierDetector>> detector =
      detectors::MakeDetectorFromBundle(bundle.value());
  if (!detector.ok()) return detector.status();

  Result<AttributedGraph> graph = datasets::LoadGraph(graph_path);
  if (!graph.ok()) return graph.status();
  if (!graph.value().has_attributes()) {
    return Status::FailedPrecondition("resident graph has no attributes");
  }
  // A well-formed bundle paired with the wrong graph would pass restore
  // and then abort in a kernel shape CHECK on the first Score; refuse the
  // pairing up front instead.
  const int expected = detector.value()->expected_attribute_dim();
  if (expected > 0 && expected != graph.value().attribute_dim()) {
    return Status::FailedPrecondition(
        "bundle expects attribute dim " + std::to_string(expected) +
        " but resident graph " + graph_path + " has " +
        std::to_string(graph.value().attribute_dim()));
  }

  auto engine = std::make_unique<ScoringEngine>(
      std::move(detector).value(), std::move(graph).value(), config);
  // Bundles exported since fingerprints carry the training baseline in
  // their config JSON; older bundles simply lack the key and serve with
  // drift reporting baseline_missing.
  if (bundle.value().config.Has("fingerprint")) {
    Result<obs::ModelFingerprint> fingerprint =
        obs::ModelFingerprint::FromJson(bundle.value().config.at("fingerprint"));
    if (!fingerprint.ok()) {
      return Status::InvalidArgument("bundle fingerprint is malformed: " +
                                     fingerprint.status().message());
    }
    engine->SetFingerprint(std::make_shared<const obs::ModelFingerprint>(
        std::move(fingerprint).value()));
  }
  return engine;
}

ScoringServer::ScoringServer(std::unique_ptr<ScoringEngine> engine, int port,
                             int slow_ring, TransportOptions transport)
    : engine_(std::move(engine)),
      requested_port_(port),
      transport_(transport),
      slow_(slow_ring < 1 ? 1 : static_cast<size_t>(slow_ring)) {}

ScoringServer::~ScoringServer() { Stop(); }

void ScoringServer::ConfigureMonitor(MonitorOptions options) {
  monitor_options_ = std::move(options);
}

Status ScoringServer::Start() {
  drift_ = std::make_unique<obs::DriftMonitor>(monitor_options_.drift);
  if (engine_->fingerprint() != nullptr) {
    drift_->SetBaseline(*engine_->fingerprint());
  }
  alerts_ = std::make_unique<obs::AlertEngine>(monitor_options_.alert_rules);
  webhook_ = std::make_unique<WebhookNotifier>(
      WebhookOptions{monitor_options_.webhook_url});
  VGOD_RETURN_IF_ERROR(webhook_->Start());

  // The watchlist hook fires on ingest threads with no engine lock held;
  // it must be installed before the engine starts accepting work.
  engine_->SetWatchlistChangeCallback(
      [this](const std::vector<WatchlistEntry>& entries) {
        if (sse_ != nullptr) sse_->Publish("watchlist", WatchlistJson(entries));
      });
  VGOD_RETURN_IF_ERROR(engine_->Start());
  http_ = std::make_unique<HttpServer>(
      [this](const HttpRequest& request, HttpServer::Responder respond) {
        Handle(request, std::move(respond));
      },
      transport_);
  sse_ = std::make_unique<SseHub>(http_.get());
  VGOD_RETURN_IF_ERROR(http_->Start(requested_port_));
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_stop_ = false;
  }
  monitor_thread_ = std::thread([this] { MonitorLoop(); });
  return Status::Ok();
}

void ScoringServer::Stop() {
  // Monitor first: its tick publishes to SSE and samples the engine's
  // graph, both about to go away.
  {
    std::lock_guard<std::mutex> lock(monitor_mu_);
    monitor_stop_ = true;
  }
  monitor_cv_.notify_all();
  if (monitor_thread_.joinable()) monitor_thread_.join();
  if (webhook_ != nullptr) webhook_->Stop();
  // Transport next so no new requests arrive while the engine drains.
  // HttpServer::Stop makes the Responders of still-inflight requests
  // safe no-ops, so the engine draining after it cannot touch a dead
  // connection.
  if (http_ != nullptr) http_->Stop();
  engine_->Shutdown();
}

void ScoringServer::MonitorLoop() {
  const double interval =
      monitor_options_.interval_seconds > 0.01
          ? monitor_options_.interval_seconds
          : 0.01;
  std::unique_lock<std::mutex> lock(monitor_mu_);
  while (!monitor_stop_) {
    lock.unlock();
    MonitorTick(MonotonicSeconds());
    lock.lock();
    monitor_cv_.wait_for(lock, std::chrono::duration<double>(interval),
                         [this] { return monitor_stop_; });
  }
}

void ScoringServer::MonitorTick(double now_seconds) {
  VGOD_SCOPE("serve/monitor");
  // Structural inputs first: the event counts recorded before a rotation
  // belong to the window that rotation closes.
  if (engine_->streaming_enabled()) {
    drift_->RecordEventCounts(CumulativeEventCounts());
  }
  drift_->SetLiveDegreeHistogram(
      SnapshotDegreeHistogram(*engine_->CurrentGraph()));
  drift_->MaybeRotate(now_seconds);
  drift_->EvaluateAndPublish();

  obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
  std::vector<obs::AlertTransition> transitions = alerts_->Evaluate(
      [&registry](const std::string& metric) {
        Result<double> value = registry.ReadValue(metric);
        return value.ok() ? value.value()
                          : std::numeric_limits<double>::quiet_NaN();
      },
      now_seconds);
  alerts_->PublishMetrics();
  for (const obs::AlertTransition& transition : transitions) {
    const std::string payload = transition.ToJson().Dump();
    VGOD_LOG(Info) << "alert " << transition.type << ": " << transition.rule
                   << " (" << transition.metric << "="
                   << transition.value << ")";
    webhook_->Notify(payload);
    sse_->Publish("alert", payload);
  }
  sse_->Keepalive();
}

void ScoringServer::Handle(const HttpRequest& request,
                           HttpServer::Responder respond) {
  VGOD_SCOPE("serve/http");
  const auto start = std::chrono::steady_clock::now();

  std::string path;
  std::string query;
  SplitTarget(request.target, &path, &query);

  auto record = std::make_shared<AccessRecord>();
  record->request_id = NextRequestId();
  record->path = path;

  // Finalization (status class, total latency, access log, slow ring) is
  // bound into the completion so it runs on whichever thread answers —
  // inline for the debug/health endpoints and score-cache hits, an engine
  // worker for /score requests that wait on a Score() call.
  Done done = [this, start, record,
               respond = std::move(respond)](HttpResponse response) {
    record->status = response.status;
    if (response.status < 200 || response.status >= 300) {
      record->error_class = HttpErrorClass(response.status);
    }
    record->total_us = MicrosSince(start);
    if (AccessLog* log = AccessLog::FromEnv()) log->Record(*record);
    slow_.Record(*record);
    respond(std::move(response));
  };
  Dispatch(request, path, query, record, std::move(done));
}

void ScoringServer::Dispatch(const HttpRequest& request,
                             const std::string& path,
                             const std::string& query,
                             const std::shared_ptr<AccessRecord>& record,
                             Done done) {
  if (path == "/healthz/live") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    // Liveness: the process is up and serving HTTP. Never 503s — a
    // draining or compacting server is alive, just not ready.
    done(HttpResponse::Json(200, "{\"status\":\"live\"}"));
    return;
  }
  if (path == "/healthz/ready" || path == "/healthz") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    std::string reason;
    if (!engine_->Ready(&reason)) {
      std::string body = "{\"status\":\"unready\",\"reason\":";
      obs::AppendJsonString(&body, reason);
      body.push_back('}');
      CountHttpError(503);
      done(HttpResponse::Json(503, std::move(body)));
      return;
    }
    if (path == "/healthz/ready") {
      done(HttpResponse::Json(200, "{\"status\":\"ready\"}"));
      return;
    }
    std::string body = "{\"status\":\"ok\",\"detector\":";
    obs::AppendJsonString(&body, engine_->detector().name());
    body += ",\"nodes\":" +
            std::to_string(engine_->CurrentGraph()->num_nodes()) +
            ",\"attribute_dim\":" +
            std::to_string(engine_->CurrentGraph()->attribute_dim()) +
            ",\"threads\":" +
            std::to_string(engine_->config().num_threads) +
            ",\"streaming\":" +
            (engine_->streaming_enabled() ? "true" : "false") + "}";
    done(HttpResponse::Json(200, std::move(body)));
    return;
  }
  if (path == "/metrics") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    Result<std::string> format = QueryParam(query, "format");
    if (!format.ok()) {
      done(ErrorResponse(400, format.status().message()));
      return;
    }
    if (format.value() == "prometheus") {
      done(HttpResponse::Prometheus(
          obs::MetricsRegistry::Global().ToPrometheus()));
      return;
    }
    if (!format.value().empty() && format.value() != "json") {
      done(ErrorResponse(400, "unknown metrics format '" + format.value() +
                                  "' (want json or prometheus)"));
      return;
    }
    done(HttpResponse::Json(200, obs::MetricsRegistry::Global().ToJson()));
    return;
  }
  if (path == "/ingest") {
    if (request.method != "POST") {
      done(ErrorResponse(405, "use POST " + path));
      return;
    }
    const auto parse_start = std::chrono::steady_clock::now();
    Result<obs::JsonValue> body = obs::ParseJson(request.body);
    if (!body.ok()) {
      record->parse_us = MicrosSince(parse_start);
      done(ErrorResponse(400, "invalid JSON: " + body.status().message()));
      return;
    }
    Result<stream::EventBatch> batch = stream::ParseEventBatch(
        body.value(),
        static_cast<size_t>(
            engine_->streaming_options().max_events_per_batch));
    record->parse_us = MicrosSince(parse_start);
    if (!batch.ok()) {
      done(ErrorResponse(400, batch.status().message()));
      return;
    }
    record->num_nodes = static_cast<int>(batch.value().events.size());
    VGOD_HISTOGRAM_OBSERVE("serve.stage.parse.seconds",
                           record->parse_us * 1e-6);
    Result<IngestResult> result =
        engine_->Ingest(batch.value(), record->request_id);
    if (!result.ok()) {
      done(ErrorResponse(StatusToHttp(result.status()),
                         result.status().message()));
      return;
    }
    done(HttpResponse::Json(200, IngestResultJson(result.value())));
    return;
  }
  if (path == "/debug/watchlist") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    int k = 0;
    Result<std::string> k_param = QueryParam(query, "k");
    if (!k_param.ok()) {
      done(ErrorResponse(400, k_param.status().message()));
      return;
    }
    if (!k_param.value().empty()) {
      char* end = nullptr;
      const long parsed = std::strtol(k_param.value().c_str(), &end, 10);
      if (end == k_param.value().c_str() || *end != '\0' || parsed < 1 ||
          parsed > 100000) {
        done(ErrorResponse(
            400, "'k' must be an integer in [1, 100000], got '" +
                     k_param.value() + "'"));
        return;
      }
      k = static_cast<int>(parsed);
    }
    Result<std::vector<WatchlistEntry>> entries = engine_->Watchlist(k);
    if (!entries.ok()) {
      done(ErrorResponse(StatusToHttp(entries.status()),
                         entries.status().message()));
      return;
    }
    done(HttpResponse::Json(200, WatchlistJson(entries.value())));
    return;
  }
  if (path == "/debug/slow") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    done(HttpResponse::Json(200, slow_.ToJson()));
    return;
  }
  if (path == "/debug/drift") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    done(HttpResponse::Json(200, drift_->ReportJson().Dump()));
    return;
  }
  if (path == "/debug/alerts") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    done(HttpResponse::Json(200, alerts_->StateJson().Dump()));
    return;
  }
  if (path == "/events") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    // SSE subscription: the hello event carries the model identity so a
    // client can verify it attached to the right server; alert and
    // watchlist events follow as they happen.
    std::string hello = "retry: 5000\nevent: hello\ndata: {\"detector\":";
    obs::AppendJsonString(&hello, engine_->detector().name());
    hello += ",\"streaming\":";
    hello += engine_->streaming_enabled() ? "true" : "false";
    hello += "}\n\n";
    HttpResponse response = HttpResponse::EventStream(std::move(hello));
    response.on_stream_open = [this](uint64_t conn_id) {
      sse_->Subscribe(conn_id);
    };
    done(std::move(response));
    return;
  }
  if (path == "/debug/profile") {
    if (request.method != "GET") {
      done(ErrorResponse(405, "use GET " + path));
      return;
    }
    double seconds = 1.0;
    Result<std::string> seconds_param = QueryParam(query, "seconds");
    if (!seconds_param.ok()) {
      done(ErrorResponse(400, seconds_param.status().message()));
      return;
    }
    if (!seconds_param.value().empty()) {
      char* end = nullptr;
      seconds = std::strtod(seconds_param.value().c_str(), &end);
      if (end == seconds_param.value().c_str() || *end != '\0' ||
          seconds <= 0.0 || seconds > 60.0) {
        done(ErrorResponse(
            400, "'seconds' must be a number in (0, 60], got '" +
                     seconds_param.value() + "'"));
        return;
      }
    }
    Result<std::string> format = QueryParam(query, "format");
    if (!format.ok()) {
      done(ErrorResponse(400, format.status().message()));
      return;
    }
    if (!format.value().empty() && format.value() != "json" &&
        format.value() != "folded") {
      done(ErrorResponse(400, "unknown profile format '" + format.value() +
                                  "' (want json or folded)"));
      return;
    }
    // Windowed capture: clear the aggregate tree, enable collection for
    // the requested wall-clock window (sleeping on this transport
    // dispatch worker; scoring proceeds on the engine threads), then
    // restore the previous enablement. A window that opens while another
    // is open gets 409: its clear would wipe the open capture, and the two
    // interleaved restores would leave profiling switched on for good.
    if (g_profile_window_open.exchange(true)) {
      done(ErrorResponse(409, "a /debug/profile window is already open"));
      return;
    }
    const bool was_enabled = obs::ProfileEnabled();
    obs::ClearProfile();
    obs::SetProfileEnabled(true);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    obs::SetProfileEnabled(was_enabled);
    const obs::ProfileNode tree = obs::SnapshotProfile();
    g_profile_window_open.store(false);
    if (format.value() == "folded") {
      HttpResponse response;
      response.status = 200;
      response.content_type = "text/plain; charset=utf-8";
      response.body = obs::ProfileToFolded(tree);
      done(std::move(response));
      return;
    }
    std::string body = "{\"seconds\":";
    obs::AppendJsonNumber(&body, seconds);
    body.append(",\"profile\":");
    body.append(obs::ProfileToJson(tree));
    body.push_back('}');
    done(HttpResponse::Json(200, std::move(body)));
    return;
  }
  if (path == "/score") {
    if (request.method != "POST") {
      done(ErrorResponse(405, "use POST " + path));
      return;
    }
    const auto parse_start = std::chrono::steady_clock::now();
    Result<obs::JsonValue> body = obs::ParseJson(request.body);
    if (!body.ok()) {
      record->parse_us = MicrosSince(parse_start);
      done(ErrorResponse(400,
                         "invalid JSON: " + body.status().message()));
      return;
    }
    // Shared completion for both /score shapes: runs on the engine
    // worker that answered (or inline on fast-fail rejection).
    auto finish = [this, record, done](Result<ScoreResult> result) {
      if (!result.ok()) {
        done(ScoreError(result.status(), record.get()));
        return;
      }
      // Every served score feeds the drift window (resident-graph and
      // inline-subgraph requests alike — both come from the same fitted
      // model the baseline fingerprints).
      for (double score : result.value().score) {
        drift_->RecordScore(score);
      }
      RecordEngineTiming(result.value().timing, record.get());
      done(SerializeResult(result.value(), record.get()));
    };
    if (body.value().Has("nodes")) {
      const obs::JsonValue& nodes_spec = body.value().at("nodes");
      if (!nodes_spec.is_array()) {
        done(ErrorResponse(400, "'nodes' must be an array"));
        return;
      }
      std::vector<int> nodes;
      nodes.reserve(nodes_spec.array().size());
      for (const obs::JsonValue& node : nodes_spec.array()) {
        if (!node.is_number()) {
          done(ErrorResponse(400, "'nodes' entries must be integers"));
          return;
        }
        nodes.push_back(static_cast<int>(node.number()));
      }
      record->num_nodes = static_cast<int>(nodes.size());
      record->parse_us = MicrosSince(parse_start);
      VGOD_HISTOGRAM_OBSERVE("serve.stage.parse.seconds",
                             record->parse_us * 1e-6);
      engine_->SubmitNodesAsync(std::move(nodes), record->request_id,
                                std::move(finish));
      return;
    }
    if (body.value().Has("graph")) {
      Result<AttributedGraph> graph =
          ParseInlineGraph(body.value().at("graph"));
      if (!graph.ok()) {
        done(ErrorResponse(400, graph.status().message()));
        return;
      }
      record->num_nodes = graph.value().num_nodes();
      record->parse_us = MicrosSince(parse_start);
      VGOD_HISTOGRAM_OBSERVE("serve.stage.parse.seconds",
                             record->parse_us * 1e-6);
      engine_->SubmitGraphAsync(std::move(graph).value(),
                                record->request_id, std::move(finish));
      return;
    }
    done(ErrorResponse(400, "body needs 'nodes' or 'graph'"));
    return;
  }
  done(ErrorResponse(404, "no such endpoint: " + path));
}

int RunServer(const ServerOptions& options, const std::atomic<bool>* stop) {
  obs::InitTraceFromEnv();
  obs::InitProfileFromEnv();
  if (faults::Enabled()) {
    std::string armed;
    for (const std::string& site : faults::ArmedSites()) {
      if (!armed.empty()) armed += ", ";
      armed += site;
    }
    VGOD_LOG(Warning) << "VGOD_FAULTS armed (" << armed
                      << ") — this process injects failures on purpose";
  }
  Result<std::unique_ptr<ScoringEngine>> engine =
      BuildEngine(options.bundle_path, options.graph_path, options.engine);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  if (options.streaming) {
    Status enabled = engine.value()->EnableStreaming(options.stream);
    if (!enabled.ok()) {
      std::fprintf(stderr, "error: %s\n", enabled.ToString().c_str());
      return 1;
    }
  }
  MonitorOptions monitor = options.monitor;
  if (!options.alert_rules_path.empty()) {
    std::ifstream rules_file(options.alert_rules_path);
    if (!rules_file) {
      std::fprintf(stderr, "error: cannot read alert rules file %s\n",
                   options.alert_rules_path.c_str());
      return 1;
    }
    std::ostringstream rules_text;
    rules_text << rules_file.rdbuf();
    Result<std::vector<obs::AlertRule>> rules =
        obs::ParseAlertRules(rules_text.str());
    if (!rules.ok()) {
      std::fprintf(stderr, "error: %s: %s\n",
                   options.alert_rules_path.c_str(),
                   rules.status().ToString().c_str());
      return 1;
    }
    monitor.alert_rules = std::move(rules).value();
  }
  if (!monitor.alert_rules.empty() || !monitor.webhook_url.empty()) {
    VGOD_LOG(Info) << "model-quality monitor: " << monitor.alert_rules.size()
                   << " alert rule(s), webhook "
                   << (monitor.webhook_url.empty() ? "off"
                                                   : monitor.webhook_url);
  }
  ScoringServer server(std::move(engine).value(), options.port,
                       options.slow_ring, options.transport);
  server.ConfigureMonitor(std::move(monitor));
  if (AccessLog::FromEnv() != nullptr) {
    VGOD_LOG(Info) << "access log enabled (VGOD_ACCESS_LOG)";
  }
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "error: %s\n", started.ToString().c_str());
    return 1;
  }
  // Machine-readable startup banner; check_serve.py parses the port.
  std::printf("vgod_serve listening on 127.0.0.1:%d (detector=%s nodes=%d "
              "threads=%d streaming=%s)\n",
              server.port(), server.engine().detector().name().c_str(),
              server.engine().graph().num_nodes(),
              options.engine.num_threads, options.streaming ? "on" : "off");
  std::fflush(stdout);

  while (!stop->load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  VGOD_LOG(Info) << "shutdown requested; draining in-flight work";
  server.Stop();
  std::printf("vgod_serve drained and stopped (served %lld requests, %lld "
              "score calls)\n",
              static_cast<long long>(server.engine().requests_served()),
              static_cast<long long>(server.engine().score_calls()));
  if (obs::TraceEnabled() && !obs::TraceEnvPath().empty()) {
    Status written = obs::WriteTrace(obs::TraceEnvPath());
    if (written.ok()) {
      VGOD_LOG(Info) << "wrote trace to " << obs::TraceEnvPath();
    } else {
      VGOD_LOG(Warning) << "trace export failed: " << written.ToString();
    }
  }
  return 0;
}

}  // namespace vgod::serve
