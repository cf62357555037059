#ifndef VGOD_SERVE_SERVER_H_
#define VGOD_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/status.h"
#include "obs/alerts.h"
#include "obs/drift.h"
#include "serve/engine.h"
#include "serve/forensics.h"
#include "serve/http.h"
#include "serve/notify.h"

namespace vgod::serve {

/// Model-quality monitoring knobs (docs/OBSERVABILITY.md "Model-quality
/// observability"): the drift window, the parsed alert rules, where
/// alert transitions POST to, and how often the monitor loop ticks.
struct MonitorOptions {
  obs::DriftConfig drift;
  std::vector<obs::AlertRule> alert_rules;
  /// Loopback webhook URL notified on every firing/resolved transition.
  /// Empty disables the webhook.
  std::string webhook_url;
  /// Seconds between monitor ticks (drift rotation + evaluation, alert
  /// sampling, SSE keepalive).
  double interval_seconds = 2.0;
};

/// Everything vgod_serve needs to stand up a scoring server.
struct ServerOptions {
  /// Model bundle to load (bundle.h), as written by `vgod_cli detect
  /// --save-bundle`.
  std::string bundle_path;
  /// Resident graph to serve (datasets::io format).
  std::string graph_path;
  /// 0 picks an ephemeral port; see ScoringServer::port().
  int port = 8080;
  /// Capacity of the slowest-request forensics ring behind GET /debug/slow.
  int slow_ring = 16;
  EngineConfig engine;
  /// Enables the streaming subsystem: POST /ingest mutates the resident
  /// graph and /debug/watchlist serves the online top-k
  /// (docs/STREAMING.md).
  bool streaming = false;
  StreamingOptions stream;
  /// Reactor transport knobs: connection cap, idle timeout, dispatch pool
  /// width (docs/SERVING.md "Transport").
  TransportOptions transport;
  /// Path to a JSON alert-rule file (obs::ParseAlertRules format). A
  /// malformed file is a startup error, never a crash. Empty = no rules.
  std::string alert_rules_path;
  /// Drift/alert/webhook knobs; RunServer fills alert_rules from
  /// alert_rules_path.
  MonitorOptions monitor;
};

/// Builds a ScoringEngine from a bundle + graph file (the batch side of
/// ServerOptions, reusable without the HTTP front end). Out-of-range
/// engine sizes (threads < 1, intra-op threads < 0, max queue < 1) are an
/// InvalidArgument, not a crash.
Result<std::unique_ptr<ScoringEngine>> BuildEngine(
    const std::string& bundle_path, const std::string& graph_path,
    const EngineConfig& config);

/// The HTTP scoring server: a ScoringEngine behind the endpoints
/// documented in docs/SERVING.md —
///   POST /score       {"nodes":[...]} or {"graph":{...}} -> scores JSON
///   POST /ingest      {"events":[...]} graph mutations (streaming mode)
///   GET  /healthz     readiness + model identity (503 + reason while
///                     draining or mid-compaction-swap)
///   GET  /healthz/live   liveness only — 200 whenever the process serves
///   GET  /healthz/ready  readiness probe, minimal body
///   GET  /metrics     the vgod::obs metrics registry as JSON
///                     (?format=prometheus for text exposition 0.0.4)
///   GET  /debug/slow  the K slowest requests with stage breakdowns
///   GET  /debug/watchlist  current top-k online outliers (streaming)
///   GET  /debug/drift   live-vs-baseline drift report (PSI/KS/structural)
///   GET  /debug/alerts  alert-rule states and transition counts
///   GET  /events        SSE stream of alert transitions + watchlist changes
///
/// Every request gets a monotonic request id at dispatch; the id threads
/// through the engine's StageTiming, the /score response body, the
/// structured access log (VGOD_ACCESS_LOG), the slow-request ring, and the
/// trace ring's flow events (docs/OBSERVABILITY.md "Request lifecycle").
class ScoringServer {
 public:
  ScoringServer(std::unique_ptr<ScoringEngine> engine, int port,
                int slow_ring = 16, TransportOptions transport = {});
  ~ScoringServer();

  /// Installs the model-quality monitor configuration (drift window,
  /// alert rules, webhook target, tick interval). Must run before
  /// Start(); defaults apply otherwise.
  void ConfigureMonitor(MonitorOptions options);

  /// Starts the engine's worker pool, the HTTP listener, the webhook
  /// notifier, and the model-quality monitor loop.
  Status Start();

  /// Graceful shutdown: stops the listener, drains the engine. Idempotent.
  void Stop();

  int port() const { return http_ == nullptr ? 0 : http_->port(); }
  ScoringEngine& engine() { return *engine_; }
  const SlowRequestTracker& slow_requests() const { return slow_; }
  obs::DriftMonitor& drift() { return *drift_; }

 private:
  /// One response delivery, invoked exactly once, from whichever thread
  /// completes the request (a transport dispatch worker for inline
  /// endpoints and score-cache hits, an engine worker for /score requests
  /// that wait on a Score() call).
  using Done = std::function<void(HttpResponse)>;

  void Handle(const HttpRequest& request, HttpServer::Responder respond);
  void Dispatch(const HttpRequest& request, const std::string& path,
                const std::string& query,
                const std::shared_ptr<AccessRecord>& record, Done done);
  /// One monitor tick: drift window rotation + structural inputs +
  /// evaluation, alert sampling, and notification fan-out.
  void MonitorTick(double now_seconds);
  void MonitorLoop();

  std::unique_ptr<ScoringEngine> engine_;
  std::unique_ptr<HttpServer> http_;
  int requested_port_;
  TransportOptions transport_;
  SlowRequestTracker slow_;

  // --- Model-quality monitoring (docs/OBSERVABILITY.md) ---
  MonitorOptions monitor_options_;
  std::unique_ptr<obs::DriftMonitor> drift_;
  std::unique_ptr<obs::AlertEngine> alerts_;
  std::unique_ptr<SseHub> sse_;
  std::unique_ptr<WebhookNotifier> webhook_;
  std::thread monitor_thread_;
  std::mutex monitor_mu_;
  std::condition_variable monitor_cv_;
  bool monitor_stop_ = false;
};

/// vgod_serve's entry point: builds the engine, starts the server, prints
/// the bound port, and blocks until `*stop` becomes true (typically
/// flipped by a SIGINT/SIGTERM handler). Returns a process exit code.
int RunServer(const ServerOptions& options, const std::atomic<bool>* stop);

}  // namespace vgod::serve

#endif  // VGOD_SERVE_SERVER_H_
