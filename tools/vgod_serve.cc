// vgod_serve — the standalone scoring server.
//
//   vgod_serve --bundle=model.vgodb --graph=g.graph [--port=8080]
//              [--threads=2] [--num_threads=N] [--max-queue=1024]
//              [--slow-ring=16]
//
// Loads a model bundle (exported by `vgod_cli detect --save-bundle`) and
// the resident graph, then serves
// POST /score, GET /healthz, GET /metrics (?format=prometheus for text
// exposition), GET /debug/slow, GET /debug/drift, GET /debug/alerts, and
// the GET /events SSE stream over HTTP/1.1 on loopback until
// SIGINT/SIGTERM, draining in-flight work before exiting. Set
// VGOD_ACCESS_LOG=PATH (or "-" for stderr) for a structured JSON access
// log, one line per request. See docs/SERVING.md.
#include <atomic>
#include <csignal>
#include <cstdio>

#include "core/args.h"
#include "serve/server.h"

namespace {

std::atomic<bool> g_stop{false};

void HandleSignal(int) { g_stop.store(true, std::memory_order_relaxed); }

}  // namespace

int main(int argc, char** argv) {
  using namespace vgod;

  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status valid = args.value().Validate({"bundle", "graph", "port", "threads",
                                        "num_threads", "max-queue",
                                        "slow-ring", "streaming",
                                        "compact-every", "watchlist-k",
                                        "max-events", "max-connections",
                                        "idle-timeout-ms",
                                        "dispatch-threads", "alert-rules",
                                        "webhook-url", "monitor-interval",
                                        "drift-rotate-seconds",
                                        "drift-window-buckets",
                                        "drift-min-count"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }

  serve::ServerOptions options;
  options.bundle_path = args.value().GetString("bundle", "");
  options.graph_path = args.value().GetString("graph", "");
  if (options.bundle_path.empty() || options.graph_path.empty()) {
    std::fprintf(stderr,
                 "usage: vgod_serve --bundle=PATH --graph=PATH [--port=N]\n"
                 "                  [--threads=N] [--num_threads=N]\n"
                 "                  [--max-queue=N] [--slow-ring=N]\n"
                 "                  [--streaming] [--compact-every=N]\n"
                 "                  [--watchlist-k=N] [--max-events=N]\n"
                 "                  [--max-connections=N]\n"
                 "                  [--idle-timeout-ms=N]\n"
                 "                  [--dispatch-threads=N]\n"
                 "                  [--alert-rules=PATH] [--webhook-url=URL]\n"
                 "                  [--monitor-interval=SECONDS]\n"
                 "                  [--drift-rotate-seconds=SECONDS]\n"
                 "                  [--drift-window-buckets=N]\n"
                 "                  [--drift-min-count=N]\n"
                 "env:   VGOD_ACCESS_LOG=PATH|-  JSON access log\n");
    return 2;
  }
  options.port = static_cast<int>(args.value().GetInt("port", 8080));
  options.engine.num_threads =
      static_cast<int>(args.value().GetInt("threads", 2));
  // Intra-op kernel pool width, applied by the engine at Start(). 0 keeps
  // the VGOD_NUM_THREADS / hardware default (docs/PARALLELISM.md).
  options.engine.intra_op_threads =
      static_cast<int>(args.value().GetInt("num_threads", 0));
  options.engine.max_queue =
      static_cast<int>(args.value().GetInt("max-queue", 1024));
  options.slow_ring =
      static_cast<int>(args.value().GetInt("slow-ring", 16));
  // Streaming ingest (docs/STREAMING.md): POST /ingest mutates the
  // resident graph, /debug/watchlist serves the online top-k.
  options.streaming = args.value().GetBool("streaming");
  options.stream.compact_every =
      static_cast<int>(args.value().GetInt("compact-every", 4096));
  options.stream.watchlist_k =
      static_cast<int>(args.value().GetInt("watchlist-k", 10));
  options.stream.max_events_per_batch =
      static_cast<int>(args.value().GetInt("max-events", 4096));
  // Reactor transport knobs (docs/SERVING.md "Transport").
  options.transport.max_connections =
      static_cast<int>(args.value().GetInt("max-connections", 1024));
  options.transport.idle_timeout_ms =
      static_cast<int>(args.value().GetInt("idle-timeout-ms", 30000));
  options.transport.dispatch_threads =
      static_cast<int>(args.value().GetInt("dispatch-threads", 4));
  // Model-quality monitoring (docs/OBSERVABILITY.md): declarative alert
  // rules, a loopback webhook for firing/resolved transitions, and the
  // drift window shape. The small knobs exist so the e2e drift gate can
  // induce and observe a firing alert in seconds, not minutes.
  options.alert_rules_path = args.value().GetString("alert-rules", "");
  options.monitor.webhook_url = args.value().GetString("webhook-url", "");
  options.monitor.interval_seconds =
      args.value().GetDouble("monitor-interval", 2.0);
  options.monitor.drift.rotate_seconds =
      args.value().GetDouble("drift-rotate-seconds", 10.0);
  options.monitor.drift.window_buckets =
      static_cast<int>(args.value().GetInt("drift-window-buckets", 6));
  options.monitor.drift.min_window_count =
      args.value().GetInt("drift-min-count", 32);

  if (!args.value().status().ok()) {
    std::fprintf(stderr, "error: %s\n",
                 args.value().status().ToString().c_str());
    return 1;
  }

  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  return serve::RunServer(options, &g_stop);
}
