// serve_loadgen — closed-loop load benchmark for the serving path.
//
// Trains a VBM detector on the standard cora UNOD case, exports it as a
// model bundle, then for each engine thread count restores the bundle into
// a fresh ScoringEngine and drives it with concurrent closed-loop clients.
// Reports client-observed p50/p99/mean latency, throughput, and the
// detector Score() calls behind them (one per graph version: the static
// graph scores once), alongside the engine-side latency histogram
// quantiles from vgod::obs.
//
//   serve_loadgen [--clients=8] [--requests=40] [--json=PATH]
//                 [--http] [--keep-alive]
//
// --http adds a phase that stands up a real ScoringServer on an ephemeral
// loopback port and drives it over TCP in both connection modes — a fresh
// connection per request and persistent HTTP/1.1 keep-alive — so the
// manifest reports connect-bound and steady-state serving side by side.
// --keep-alive is shorthand that also enables the HTTP phase. The default
// in-process phase is unchanged (check_bench bands key off it).
//
// Honors the usual bench env knobs (VGOD_BENCH_SCALE / _SEED /
// _EPOCH_SCALE); tools/check_serve.py runs this at a reduced scale and
// validates the --json output.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.h"
#include "core/args.h"
#include "core/logging.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "serve/http_client.h"
#include "serve/server.h"

namespace vgod::bench {
namespace {

struct StageQuantiles {
  double p50_ms = 0.0;
  double p99_ms = 0.0;
};

struct ConfigResult {
  int threads = 0;
  int64_t requests = 0;
  int64_t score_calls = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double throughput_rps = 0.0;
  double engine_p50_ms = 0.0;
  double engine_p99_ms = 0.0;
  // Per-stage quantiles from the serve.stage.* histograms — where the
  // engine-side latency actually went for this configuration.
  StageQuantiles queue_wait;
  StageQuantiles score;
};

StageQuantiles StageFromRegistry(const char* name) {
  obs::Histogram* histogram = obs::MetricsRegistry::Global().GetHistogram(
      name, obs::DefaultLatencyBounds());
  StageQuantiles out;
  out.p50_ms = obs::HistogramQuantile(*histogram, 0.5) * 1e3;
  out.p99_ms = obs::HistogramQuantile(*histogram, 0.99) * 1e3;
  return out;
}

double PercentileMs(std::vector<double>* sorted_ms, double q) {
  if (sorted_ms->empty()) return 0.0;
  std::sort(sorted_ms->begin(), sorted_ms->end());
  const size_t n = sorted_ms->size();
  size_t index = static_cast<size_t>(q * static_cast<double>(n));
  if (index >= n) index = n - 1;
  return (*sorted_ms)[index];
}

ConfigResult RunConfig(const detectors::ModelBundle& bundle,
                       const UnodCase& unod_case, int threads, int clients,
                       int requests_per_client) {
  ConfigResult out;
  out.threads = threads;

  detectors::DetectorOptions options;
  options.seed = EnvSeed();
  Result<std::unique_ptr<detectors::OutlierDetector>> restored =
      detectors::MakeDetectorFromBundle(bundle, options);
  VGOD_CHECK(restored.ok()) << restored.status().ToString();

  serve::EngineConfig config;
  config.num_threads = threads;
  serve::ScoringEngine engine(std::move(restored.value()), unod_case.graph,
                              config);
  VGOD_CHECK(engine.Start().ok());

  obs::MetricsRegistry::Global().ResetAll();

  const int num_nodes = unod_case.graph.num_nodes();
  std::vector<std::vector<double>> latencies_ms(clients);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c]() {
      std::vector<double>& mine = latencies_ms[c];
      mine.reserve(requests_per_client);
      for (int r = 0; r < requests_per_client; ++r) {
        std::vector<int> nodes = {(c * 131 + r * 17) % num_nodes,
                                  (c * 131 + r * 17 + 1) % num_nodes,
                                  (c * 131 + r * 17 + 2) % num_nodes,
                                  (c * 131 + r * 17 + 3) % num_nodes};
        const auto t0 = std::chrono::steady_clock::now();
        Result<serve::ScoreResult> result = engine.ScoreNodes(std::move(nodes));
        const auto t1 = std::chrono::steady_clock::now();
        VGOD_CHECK(result.ok()) << result.status().ToString();
        mine.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  obs::Histogram* latency = obs::MetricsRegistry::Global().GetHistogram(
      "serve.request.latency.seconds", obs::DefaultLatencyBounds());
  out.engine_p50_ms = obs::HistogramQuantile(*latency, 0.5) * 1e3;
  out.engine_p99_ms = obs::HistogramQuantile(*latency, 0.99) * 1e3;
  out.queue_wait = StageFromRegistry("serve.stage.queue_wait.seconds");
  out.score = StageFromRegistry("serve.stage.score.seconds");

  engine.Shutdown();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies_ms) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  out.requests = static_cast<int64_t>(merged.size());
  out.score_calls = engine.score_calls();
  double sum = 0.0;
  for (double v : merged) sum += v;
  out.mean_ms = merged.empty() ? 0.0 : sum / static_cast<double>(merged.size());
  out.p99_ms = PercentileMs(&merged, 0.99);
  out.p50_ms = PercentileMs(&merged, 0.50);
  out.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(merged.size()) / wall_s : 0.0;
  return out;
}

struct HttpModeResult {
  std::string mode;  // "fresh" (connection per request) or "keepalive".
  int64_t requests = 0;
  int64_t errors = 0;
  int64_t connections = 0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  double mean_ms = 0.0;
  double throughput_rps = 0.0;
};

HttpModeResult RunHttpMode(int port, int num_nodes, bool keep_alive,
                           int clients, int requests_per_client) {
  HttpModeResult out;
  out.mode = keep_alive ? "keepalive" : "fresh";

  std::vector<std::vector<double>> latencies_ms(clients);
  std::vector<int64_t> errors(clients, 0);
  std::vector<int64_t> connections(clients, 0);
  const auto wall_start = std::chrono::steady_clock::now();
  std::vector<std::thread> pool;
  pool.reserve(clients);
  for (int c = 0; c < clients; ++c) {
    pool.emplace_back([&, c]() {
      serve::HttpClient client(port, keep_alive);
      std::vector<double>& mine = latencies_ms[c];
      mine.reserve(requests_per_client);
      for (int r = 0; r < requests_per_client; ++r) {
        std::string body = "{\"nodes\":[";
        const int base = (c * 131 + r * 17) % num_nodes;
        for (int k = 0; k < 4; ++k) {
          if (k > 0) body.push_back(',');
          body.append(std::to_string((base + k) % num_nodes));
        }
        body.append("]}");
        const auto t0 = std::chrono::steady_clock::now();
        Result<serve::HttpResponse> response = client.Post("/score", body);
        const auto t1 = std::chrono::steady_clock::now();
        if (!response.ok() || response.value().status != 200) {
          ++errors[c];
          continue;
        }
        mine.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
      connections[c] = client.connections_opened();
    });
  }
  for (std::thread& t : pool) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies_ms) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  for (int64_t e : errors) out.errors += e;
  for (int64_t n : connections) out.connections += n;
  out.requests = static_cast<int64_t>(merged.size());
  double sum = 0.0;
  for (double v : merged) sum += v;
  out.mean_ms = merged.empty() ? 0.0 : sum / static_cast<double>(merged.size());
  out.p99_ms = PercentileMs(&merged, 0.99);
  out.p50_ms = PercentileMs(&merged, 0.50);
  out.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(merged.size()) / wall_s : 0.0;
  return out;
}

/// This process's live thread count ("Threads:" in /proc/self/status) —
/// how the fanout phase proves the transport is not thread-per-connection.
int CurrentThreadCount() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::atoi(line.c_str() + 8);
    }
  }
  return -1;
}

double OpenConnectionsGauge() {
  return obs::MetricsRegistry::Global()
      .GetGauge("serve.transport.open_connections")
      ->Value();
}

/// Waits for the server's open-connection gauge to drain to `target`
/// (closed keep-alive connections are reaped by the event thread, not
/// synchronously with the client's close). Returns the final reading.
double DrainOpenConnections(double target, int deadline_ms) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(deadline_ms);
  double open = OpenConnectionsGauge();
  while (open > target && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    open = OpenConnectionsGauge();
  }
  return open;
}

struct FanoutResult {
  int connections = 0;
  /// Threads the *server* added while holding all connections open
  /// (measured thread delta minus the client threads themselves).
  /// Thread-per-connection would put this near `connections`; the
  /// reactor keeps it at ~0.
  int server_threads_delta = 0;
  double open_connections = 0.0;  // Gauge while all clients were parked.
  int64_t requests = 0;
  int64_t errors = 0;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;
};

/// High-fanout phase: `connections` keep-alive clients connect, all park
/// holding their connections open (where thread-per-connection transports
/// bleed), then issue a short request burst each.
FanoutResult RunFanoutPhase(int port, int num_nodes, int connections,
                            int requests_per_client) {
  FanoutResult out;
  out.connections = connections;

  const int threads_before = CurrentThreadCount();
  std::atomic<int> parked{0};
  std::atomic<bool> release{false};
  std::atomic<int64_t> errors{0};
  std::vector<std::vector<double>> latencies_ms(connections);

  std::vector<std::thread> pool;
  pool.reserve(connections);
  const auto wall_start = std::chrono::steady_clock::now();
  for (int c = 0; c < connections; ++c) {
    pool.emplace_back([&, c]() {
      serve::HttpClient client(port, /*keep_alive=*/true);
      // Establish the persistent connection with one real request.
      Result<serve::HttpResponse> first = client.Get("/healthz/live");
      if (!first.ok() || first.value().status != 200) {
        errors.fetch_add(1, std::memory_order_relaxed);
      }
      parked.fetch_add(1, std::memory_order_release);
      while (!release.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      std::vector<double>& mine = latencies_ms[c];
      mine.reserve(requests_per_client);
      for (int r = 0; r < requests_per_client; ++r) {
        std::string body = "{\"nodes\":[" +
                           std::to_string((c * 131 + r * 17) % num_nodes) +
                           "]}";
        const auto t0 = std::chrono::steady_clock::now();
        Result<serve::HttpResponse> response = client.Post("/score", body);
        const auto t1 = std::chrono::steady_clock::now();
        if (!response.ok() || response.value().status != 200) {
          errors.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        mine.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
      }
    });
  }
  while (parked.load(std::memory_order_acquire) < connections) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // Every connection is established and idle: this is the steady-state
  // cost snapshot. The client threads themselves are part of the delta,
  // so subtract them; what's left is what the server added.
  out.server_threads_delta =
      CurrentThreadCount() - threads_before - connections;
  out.open_connections = OpenConnectionsGauge();
  release.store(true, std::memory_order_release);
  for (std::thread& t : pool) t.join();
  const double wall_s = std::chrono::duration<double>(
                            std::chrono::steady_clock::now() - wall_start)
                            .count();

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies_ms) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  out.requests = static_cast<int64_t>(merged.size());
  out.errors = errors.load(std::memory_order_relaxed);
  out.p99_ms = PercentileMs(&merged, 0.99);
  out.throughput_rps =
      wall_s > 0.0 ? static_cast<double>(merged.size()) / wall_s : 0.0;
  return out;
}

struct ChurnResult {
  int connections = 0;
  int64_t errors = 0;
  double open_connections_final = 0.0;  // Gauge after the drain.
  int threads_delta = 0;  // Process thread delta across the whole phase.
};

/// Connection-churn phase: many short-lived connections in sequence. The
/// old transport leaked one joinable std::thread per connection here;
/// the reactor must return both the thread count and the open-connection
/// gauge to baseline.
ChurnResult RunChurnPhase(int port, int connections) {
  ChurnResult out;
  out.connections = connections;
  const int threads_before = CurrentThreadCount();
  for (int i = 0; i < connections; ++i) {
    serve::HttpClient client(port, /*keep_alive=*/false);
    Result<serve::HttpResponse> response = client.Get("/healthz/live");
    if (!response.ok() || response.value().status != 200) ++out.errors;
  }
  out.open_connections_final = DrainOpenConnections(0.0, /*deadline_ms=*/5000);
  out.threads_delta = CurrentThreadCount() - threads_before;
  return out;
}

std::string ResultsJson(const UnodCase& unod_case, int clients,
                        int requests_per_client,
                        const std::vector<ConfigResult>& results,
                        const std::vector<HttpModeResult>& http_results,
                        const FanoutResult* fanout, const ChurnResult* churn) {
  std::string out = "{\"benchmark\":\"serve_loadgen\",\"dataset\":";
  obs::AppendJsonString(&out, unod_case.name);
  out.append(",\"detector\":\"VBM\",\"nodes\":");
  obs::AppendJsonNumber(&out, unod_case.graph.num_nodes());
  out.append(",\"clients\":");
  obs::AppendJsonNumber(&out, clients);
  out.append(",\"requests_per_client\":");
  obs::AppendJsonNumber(&out, requests_per_client);
  out.append(",\"configs\":[");
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    if (i > 0) out.push_back(',');
    out.append("{\"threads\":");
    obs::AppendJsonNumber(&out, r.threads);
    out.append(",\"requests\":");
    obs::AppendJsonNumber(&out, static_cast<double>(r.requests));
    out.append(",\"score_calls\":");
    obs::AppendJsonNumber(&out, static_cast<double>(r.score_calls));
    out.append(",\"p50_ms\":");
    obs::AppendJsonNumber(&out, r.p50_ms);
    out.append(",\"p99_ms\":");
    obs::AppendJsonNumber(&out, r.p99_ms);
    out.append(",\"mean_ms\":");
    obs::AppendJsonNumber(&out, r.mean_ms);
    out.append(",\"throughput_rps\":");
    obs::AppendJsonNumber(&out, r.throughput_rps);
    out.append(",\"engine_p50_ms\":");
    obs::AppendJsonNumber(&out, r.engine_p50_ms);
    out.append(",\"engine_p99_ms\":");
    obs::AppendJsonNumber(&out, r.engine_p99_ms);
    out.append(",\"stages\":{");
    const std::pair<const char*, const StageQuantiles*> stages[] = {
        {"queue_wait", &r.queue_wait}, {"score", &r.score}};
    for (size_t s = 0; s < 2; ++s) {
      if (s > 0) out.push_back(',');
      out.push_back('"');
      out.append(stages[s].first);
      out.append("\":{\"p50_ms\":");
      obs::AppendJsonNumber(&out, stages[s].second->p50_ms);
      out.append(",\"p99_ms\":");
      obs::AppendJsonNumber(&out, stages[s].second->p99_ms);
      out.append("}");
    }
    out.append("}}");
  }
  out.append("]");
  if (!http_results.empty()) {
    out.append(",\"http\":[");
    for (size_t i = 0; i < http_results.size(); ++i) {
      const HttpModeResult& h = http_results[i];
      if (i > 0) out.push_back(',');
      out.append("{\"mode\":");
      obs::AppendJsonString(&out, h.mode);
      out.append(",\"requests\":");
      obs::AppendJsonNumber(&out, static_cast<double>(h.requests));
      out.append(",\"errors\":");
      obs::AppendJsonNumber(&out, static_cast<double>(h.errors));
      out.append(",\"connections\":");
      obs::AppendJsonNumber(&out, static_cast<double>(h.connections));
      out.append(",\"p50_ms\":");
      obs::AppendJsonNumber(&out, h.p50_ms);
      out.append(",\"p99_ms\":");
      obs::AppendJsonNumber(&out, h.p99_ms);
      out.append(",\"mean_ms\":");
      obs::AppendJsonNumber(&out, h.mean_ms);
      out.append(",\"throughput_rps\":");
      obs::AppendJsonNumber(&out, h.throughput_rps);
      out.append("}");
    }
    out.append("]");
  }
  if (fanout != nullptr) {
    out.append(",\"fanout\":{\"connections\":");
    obs::AppendJsonNumber(&out, fanout->connections);
    out.append(",\"server_threads_delta\":");
    obs::AppendJsonNumber(&out, fanout->server_threads_delta);
    out.append(",\"open_connections\":");
    obs::AppendJsonNumber(&out, fanout->open_connections);
    out.append(",\"requests\":");
    obs::AppendJsonNumber(&out, static_cast<double>(fanout->requests));
    out.append(",\"errors\":");
    obs::AppendJsonNumber(&out, static_cast<double>(fanout->errors));
    out.append(",\"p99_ms\":");
    obs::AppendJsonNumber(&out, fanout->p99_ms);
    out.append(",\"throughput_rps\":");
    obs::AppendJsonNumber(&out, fanout->throughput_rps);
    out.append("}");
  }
  if (churn != nullptr) {
    out.append(",\"churn\":{\"connections\":");
    obs::AppendJsonNumber(&out, churn->connections);
    out.append(",\"errors\":");
    obs::AppendJsonNumber(&out, static_cast<double>(churn->errors));
    out.append(",\"open_connections_final\":");
    obs::AppendJsonNumber(&out, churn->open_connections_final);
    out.append(",\"threads_delta\":");
    obs::AppendJsonNumber(&out, churn->threads_delta);
    out.append("}");
  }
  out.append("}");
  return out;
}

int Main(int argc, char** argv) {
  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) {
    std::fprintf(stderr, "error: %s\n", args.status().ToString().c_str());
    return 2;
  }
  Status valid = args.value().Validate(
      {"clients", "requests", "json", "http", "keep-alive"});
  if (!valid.ok()) {
    std::fprintf(stderr, "error: %s\n", valid.ToString().c_str());
    return 2;
  }
  const int clients =
      std::max<int>(1, static_cast<int>(args.value().GetInt("clients", 8)));
  const int requests_per_client =
      std::max<int>(1, static_cast<int>(args.value().GetInt("requests", 40)));
  const std::string json_path = args.value().GetString("json", "");
  const bool http_phase =
      args.value().GetBool("http") || args.value().GetBool("keep-alive");
  if (!args.value().status().ok()) {
    std::fprintf(stderr, "error: %s\n",
                 args.value().status().ToString().c_str());
    return 1;
  }

  PrintBanner("serve_loadgen",
              "serving-path load benchmark: p50/p99 latency + throughput "
              "across engine thread counts");

  UnodCase unod_case = MakeUnodCase("cora", EnvSeed());
  detectors::DetectorOptions options = OptionsFor(unod_case, EnvSeed());
  Result<std::unique_ptr<detectors::OutlierDetector>> detector =
      detectors::MakeDetector("VBM", options);
  VGOD_CHECK(detector.ok()) << detector.status().ToString();
  std::printf("training VBM on %s (%d nodes)...\n", unod_case.name.c_str(),
              unod_case.graph.num_nodes());
  Status fitted = detector.value()->Fit(unod_case.graph);
  VGOD_CHECK(fitted.ok()) << fitted.ToString();
  Result<detectors::ModelBundle> bundle = detector.value()->ExportBundle();
  VGOD_CHECK(bundle.ok()) << bundle.status().ToString();

  const int kThreadCounts[] = {1, 4};
  std::vector<ConfigResult> results;
  std::printf("%8s %10s %10s %10s %12s %12s\n", "threads", "p50_ms",
              "p99_ms", "mean_ms", "rps", "score_calls");
  for (const int threads : kThreadCounts) {
    ConfigResult r = RunConfig(bundle.value(), unod_case, threads, clients,
                               requests_per_client);
    std::printf("%8d %10.3f %10.3f %10.3f %12.1f %12lld\n", r.threads,
                r.p50_ms, r.p99_ms, r.mean_ms, r.throughput_rps,
                static_cast<long long>(r.score_calls));
    std::string tag = "t";
    tag.append(std::to_string(threads));
    RecordManifestResult(unod_case.name, "VBM", tag + ".p50_ms", r.p50_ms);
    RecordManifestResult(unod_case.name, "VBM", tag + ".p99_ms", r.p99_ms);
    RecordManifestResult(unod_case.name, "VBM", tag + ".throughput_rps",
                         r.throughput_rps);
    RecordManifestResult(unod_case.name, "VBM", tag + ".queue_wait_p99_ms",
                         r.queue_wait.p99_ms);
    RecordManifestResult(unod_case.name, "VBM", tag + ".score_p99_ms",
                         r.score.p99_ms);
    results.push_back(r);
  }

  std::vector<HttpModeResult> http_results;
  if (http_phase) {
    // Stand up the real server (TCP + HTTP parse + dispatch) on the
    // strongest in-process configuration and measure the transport tax in
    // both connection modes.
    detectors::DetectorOptions restore_options;
    restore_options.seed = EnvSeed();
    Result<std::unique_ptr<detectors::OutlierDetector>> restored =
        detectors::MakeDetectorFromBundle(bundle.value(), restore_options);
    VGOD_CHECK(restored.ok()) << restored.status().ToString();
    serve::EngineConfig config;
    config.num_threads = 4;
    auto engine = std::make_unique<serve::ScoringEngine>(
        std::move(restored.value()), unod_case.graph, config);
    serve::ScoringServer server(std::move(engine), /*port=*/0);
    VGOD_CHECK(server.Start().ok());
    const int port = server.port();
    std::printf("\nhttp phase on 127.0.0.1:%d (threads=4)\n", port);
    std::printf("%10s %10s %10s %10s %12s %12s\n", "mode", "p50_ms",
                "p99_ms", "mean_ms", "rps", "connections");
    const int num_nodes = unod_case.graph.num_nodes();
    for (const bool keep_alive : {false, true}) {
      HttpModeResult h = RunHttpMode(port, num_nodes, keep_alive, clients,
                                     requests_per_client);
      std::printf("%10s %10.3f %10.3f %10.3f %12.1f %12lld\n",
                  h.mode.c_str(), h.p50_ms, h.p99_ms, h.mean_ms,
                  h.throughput_rps, static_cast<long long>(h.connections));
      VGOD_CHECK(h.errors == 0)
          << h.mode << " mode saw " << h.errors << " failed requests";
      const std::string tag = "http." + h.mode;
      RecordManifestResult(unod_case.name, "VBM", tag + ".p50_ms", h.p50_ms);
      RecordManifestResult(unod_case.name, "VBM", tag + ".p99_ms", h.p99_ms);
      RecordManifestResult(unod_case.name, "VBM", tag + ".throughput_rps",
                           h.throughput_rps);
      RecordManifestResult(unod_case.name, "VBM", tag + ".connections",
                           static_cast<double>(h.connections));
      http_results.push_back(h);
    }

    // High-fanout phase: the acceptance bar for the reactor transport.
    // 256 persistent connections parked simultaneously must cost epoll
    // registrations, not server threads.
    constexpr int kFanoutConnections = 256;
    constexpr int kFanoutRequests = 4;
    DrainOpenConnections(0.0, /*deadline_ms=*/5000);  // Clean baseline.
    FanoutResult fanout = RunFanoutPhase(port, num_nodes, kFanoutConnections,
                                         kFanoutRequests);
    std::printf("\nfanout: %d keep-alive connections parked, "
                "server_threads_delta=%d open_connections=%.0f "
                "p99=%.3fms rps=%.1f\n",
                fanout.connections, fanout.server_threads_delta,
                fanout.open_connections, fanout.p99_ms,
                fanout.throughput_rps);
    VGOD_CHECK(fanout.errors == 0)
        << "fanout phase saw " << fanout.errors << " failed requests";
    RecordManifestResult(unod_case.name, "VBM",
                         "transport.fanout.connections",
                         static_cast<double>(fanout.connections));
    RecordManifestResult(unod_case.name, "VBM",
                         "transport.fanout.server_threads_delta",
                         static_cast<double>(fanout.server_threads_delta));
    RecordManifestResult(unod_case.name, "VBM",
                         "transport.fanout.open_connections",
                         fanout.open_connections);
    RecordManifestResult(unod_case.name, "VBM", "transport.fanout.p99_ms",
                         fanout.p99_ms);
    RecordManifestResult(unod_case.name, "VBM",
                         "transport.fanout.throughput_rps",
                         fanout.throughput_rps);

    // Connection-churn phase: the old transport leaked one joinable
    // thread per connection here; both gauges must return to baseline.
    constexpr int kChurnConnections = 300;
    DrainOpenConnections(0.0, /*deadline_ms=*/5000);
    ChurnResult churn = RunChurnPhase(port, kChurnConnections);
    std::printf("churn: %d short-lived connections, "
                "open_connections_final=%.0f threads_delta=%d\n",
                churn.connections, churn.open_connections_final,
                churn.threads_delta);
    VGOD_CHECK(churn.errors == 0)
        << "churn phase saw " << churn.errors << " failed requests";
    RecordManifestResult(unod_case.name, "VBM", "transport.churn.connections",
                         static_cast<double>(churn.connections));
    RecordManifestResult(unod_case.name, "VBM",
                         "transport.churn.open_connections_final",
                         churn.open_connections_final);
    RecordManifestResult(unod_case.name, "VBM",
                         "transport.churn.threads_delta",
                         static_cast<double>(churn.threads_delta));

    server.Stop();

    if (!json_path.empty()) {
      std::ofstream file(json_path);
      if (!file) {
        std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
        return 1;
      }
      file << ResultsJson(unod_case, clients, requests_per_client, results,
                          http_results, &fanout, &churn)
           << "\n";
      std::printf("wrote %s\n", json_path.c_str());
    }
    return 0;
  }

  if (!json_path.empty()) {
    std::ofstream file(json_path);
    if (!file) {
      std::fprintf(stderr, "error: cannot write %s\n", json_path.c_str());
      return 1;
    }
    file << ResultsJson(unod_case, clients, requests_per_client, results,
                        http_results, nullptr, nullptr)
         << "\n";
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace vgod::bench

int main(int argc, char** argv) { return vgod::bench::Main(argc, argv); }
