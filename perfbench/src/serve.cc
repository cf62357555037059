// The `serve-static` and `serve-stream` workloads: the shipped vgod_serve as
// a child process under open-loop load, checked against in-process Score().
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <optional>
#include <unordered_map>

#include "bench.h"
#include "core/rng.h"
#include "datasets/io.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "loadgen.h"

namespace perfbench {

namespace {

using vgod::detectors::OutlierDetector;
using vgod::obs::JsonValue;
using vgod::stream::EventBatch;

// Load shape (perfbench/README.md "Workloads").
constexpr int kSetupSpawns = 5;
constexpr int kNodesPerLookup = 4;
constexpr int kLookupPool = 512;
constexpr int kSubgraphPool = 6;
constexpr int kSubgraphNodes = 300;
constexpr double kNodeRps = 30.0;      // fixed-rate node lookups
constexpr double kSubgraphRps = 3.7;   // fixed-rate inline subgraphs
constexpr double kWarmupSeconds = 1.0;
// Each round's fixed-rate phase lasts kFixedShare * --seconds.
constexpr double kFixedShare = 0.125;
constexpr int kWindows = 3;  // slices per fixed-rate phase (WindowedQuantile)
constexpr double kDrainSeconds = 5.0;
// Rate search: node lookups only; a step passes when nothing fails, the
// step's p90 latency is within the limit and the latency is not growing.
constexpr double kLatencyLimitMs = 150.0;
constexpr double kSearchStepSeconds = 1.0;
constexpr double kSearchStartRps = 40.0;
constexpr double kSearchFineFactor = 1.03;
constexpr int kSearchStrides[] = {13, 4, 1};  // x1.47, x1.13, x1.03
constexpr double kSearchMaxRps = 40000.0;
constexpr int kLookupConnections = 3;  // the fourth carries subgraphs/ingest

enum Kind { kLookup = 0, kSubgraph = 1, kIngest = 2 };

struct Lookup {
  std::vector<int> nodes;
  std::string wire;
};

struct Subgraph {
  AttributedGraph graph;
  std::string wire;
};

std::vector<Lookup> MakeLookups(int num_nodes, uint64_t seed) {
  vgod::Rng rng(seed ^ 0x100cc0ULL);
  std::vector<Lookup> out(kLookupPool);
  for (Lookup& lookup : out) {
    std::string body = "{\"nodes\":[";
    for (int i = 0; i < kNodesPerLookup; ++i) {
      const int node = static_cast<int>(rng.UniformInt(num_nodes));
      lookup.nodes.push_back(node);
      if (i > 0) body.push_back(',');
      body += std::to_string(node);
    }
    body += "]}";
    lookup.wire = PostRequest("/score", body);
  }
  return out;
}

/// Breadth-first neighborhoods of random roots, `kSubgraphNodes` nodes each
/// (topped up with random nodes when a component is smaller), sent inline
/// as {"graph":{...}} with their induced edges and attribute rows.
std::vector<Subgraph> MakeSubgraphs(const AttributedGraph& graph,
                                    uint64_t seed) {
  vgod::Rng rng(seed ^ 0x5ab9ULL);
  const int n = graph.num_nodes();
  const int d = graph.attribute_dim();
  std::vector<Subgraph> out;
  char buffer[48];
  for (int s = 0; s < kSubgraphPool; ++s) {
    std::vector<int> members;
    std::unordered_map<int, int> local;
    std::vector<int> frontier = {static_cast<int>(rng.UniformInt(n))};
    while (static_cast<int>(members.size()) < kSubgraphNodes) {
      if (frontier.empty()) frontier.push_back(static_cast<int>(rng.UniformInt(n)));
      const int node = frontier.front();
      frontier.erase(frontier.begin());
      if (local.count(node) != 0) continue;
      local[node] = static_cast<int>(members.size());
      members.push_back(node);
      for (int32_t v : graph.Neighbors(node)) frontier.push_back(v);
    }
    std::vector<std::pair<int, int>> edges;
    for (int node : members) {
      for (int32_t v : graph.Neighbors(node)) {
        auto it = local.find(v);
        if (it != local.end() && local[node] < it->second) {
          edges.emplace_back(local[node], it->second);
        }
      }
    }
    Tensor attributes(kSubgraphNodes, d);
    std::string body = "{\"graph\":{\"num_nodes\":";
    body += std::to_string(kSubgraphNodes);
    body += ",\"edges\":[";
    for (size_t e = 0; e < edges.size(); ++e) {
      if (e > 0) body.push_back(',');
      body.push_back('[');
      body += std::to_string(edges[e].first);
      body.push_back(',');
      body += std::to_string(edges[e].second);
      body.push_back(']');
    }
    body += "],\"attributes\":[";
    for (int i = 0; i < kSubgraphNodes; ++i) {
      if (i > 0) body.push_back(',');
      body.push_back('[');
      for (int c = 0; c < d; ++c) {
        const float value = graph.attributes().At(members[i], c);
        attributes.SetAt(i, c, value);
        if (c > 0) body.push_back(',');
        std::snprintf(buffer, sizeof(buffer), "%.9g", value);
        body += buffer;
      }
      body.push_back(']');
    }
    body += "]}}";
    Result<AttributedGraph> built = AttributedGraph::FromEdgeList(
        kSubgraphNodes, edges, std::move(attributes), true);
    if (!built.ok()) continue;
    out.push_back({std::move(built).value(), PostRequest("/score", body)});
  }
  return out;
}

struct PhaseResult {
  Phase phase;
  double seconds = 0.0;
  std::vector<Completion> completions;
  std::vector<Scheduled> schedule;
  JsonValue metrics_before;
  JsonValue metrics_after;
};

std::vector<double> LatenciesMs(const PhaseResult& result, int kind) {
  std::vector<double> out;
  for (size_t i = 0; i < result.schedule.size(); ++i) {
    const Completion& c = result.completions[i];
    if (result.schedule[i].kind == kind && c.status == 200) {
      out.push_back(1e3 * (c.done - c.due));
    }
  }
  return out;
}

/// The median, over kWindows equal slices (by due time) of each round's
/// fixed-rate phase, of each slice's latency quantile: a slow spell on the
/// machine moves a few slices, not the figure.
double WindowedQuantile(const std::vector<PhaseResult>& rounds, int kind,
                        double q) {
  std::vector<double> per_window;
  for (const PhaseResult& result : rounds) {
    std::vector<std::vector<double>> windows(kWindows);
    const double t0 =
        result.completions.empty() ? 0.0 : result.completions[0].due;
    for (size_t i = 0; i < result.schedule.size(); ++i) {
      const Completion& c = result.completions[i];
      if (result.schedule[i].kind != kind || c.status != 200) continue;
      const int w = std::min(
          kWindows - 1,
          static_cast<int>((c.due - t0) / (result.seconds / kWindows)));
      windows[w].push_back(1e3 * (c.done - c.due));
    }
    for (const std::vector<double>& w : windows) {
      if (!w.empty()) per_window.push_back(Quantile(w, q));
    }
  }
  return Median(per_window);
}

/// Latencies of `kind` over all rounds.
std::vector<double> AllLatenciesMs(const std::vector<PhaseResult>& rounds,
                                   int kind) {
  std::vector<double> out;
  for (const PhaseResult& result : rounds) {
    const std::vector<double> ms = LatenciesMs(result, kind);
    out.insert(out.end(), ms.begin(), ms.end());
  }
  return out;
}

/// One open-loop phase: node lookups on connections 0..2 and, on the
/// fourth connection, subgraph requests or ingest batches in order.
PhaseResult RunPhase(const std::string& name, LoadGenerator* gen, int port,
                     double seconds, double lookup_rps,
                     const std::vector<Lookup>& lookups, double side_rps,
                     int side_kind, const std::vector<std::string>& side_wires,
                     bool scrape) {
  PhaseResult result;
  result.phase.name = name;
  result.seconds = seconds;
  const int num_lookups = static_cast<int>(std::floor(seconds * lookup_rps));
  for (int i = 0; i < num_lookups; ++i) {
    result.schedule.push_back({i / lookup_rps, i % kLookupConnections,
                               &lookups[i % lookups.size()].wire, kLookup,
                               static_cast<int>(i % lookups.size())});
  }
  if (side_rps > 0.0 && !side_wires.empty()) {
    const int num_side = std::min<int>(static_cast<int>(seconds * side_rps),
                                       static_cast<int>(side_wires.size()));
    for (int i = 0; i < num_side; ++i) {
      result.schedule.push_back({(i + 0.5) / side_rps, kLookupConnections,
                                 &side_wires[i], side_kind, i});
    }
  }
  std::stable_sort(result.schedule.begin(), result.schedule.end(),
                   [](const Scheduled& a, const Scheduled& b) {
                     return a.due < b.due;
                   });
  if (scrape) {
    Result<JsonValue> before = GetJson(port, "/metrics");
    if (before.ok()) result.metrics_before = std::move(before).value();
  }
  Span span("serve.phase." + name);
  result.completions = gen->Run(result.schedule, kDrainSeconds,
                                {kLookup, kSubgraph, kIngest});
  // The request bytes belong to the caller and may not outlive this call.
  for (Scheduled& scheduled : result.schedule) scheduled.wire = nullptr;
  if (scrape) {
    Result<JsonValue> after = GetJson(port, "/metrics");
    if (after.ok()) result.metrics_after = std::move(after).value();
  }
  std::vector<double> late_ms;
  for (size_t i = 0; i < result.schedule.size(); ++i) {
    const Completion& c = result.completions[i];
    ++result.phase.attempted;
    if (c.status == 200) {
      ++result.phase.succeeded;
    } else {
      ++result.phase.failed;
    }
    late_ms.push_back(1e3 * (c.sent - c.due));
    if (c.status == 200) {
      static const char* kNames[] = {"http.score_lookup", "http.score_subgraph",
                                     "http.ingest"};
      Tracer::Get().Record(kNames[result.schedule[i].kind], c.due, c.done,
                           static_cast<uint64_t>(i + 1));
    }
  }
  result.phase.offered_rps =
      seconds > 0 ? static_cast<double>(result.schedule.size()) / seconds : 0;
  result.phase.late_p50_ms = Quantile(late_ms, 0.5);
  result.phase.late_p99_ms = Quantile(late_ms, 0.99);
  result.phase.late_max_ms = Quantile(late_ms, 1.0);
  return result;
}

/// Folds one phase into a stage total: counts add up, the offered rate and
/// the generator's lateness keep their worst value.
void Accumulate(Phase* total, const Phase& part) {
  total->attempted += part.attempted;
  total->succeeded += part.succeeded;
  total->failed += part.failed;
  total->offered_rps = std::max(total->offered_rps, part.offered_rps);
  total->late_p50_ms = std::max(total->late_p50_ms, part.late_p50_ms);
  total->late_p99_ms = std::max(total->late_p99_ms, part.late_p99_ms);
  total->late_max_ms = std::max(total->late_max_ms, part.late_max_ms);
}

/// Lookup-path layer figures from the /metrics delta of a phase that sends
/// node lookups only, so no subgraph scoring mixes into the engine's
/// figures.
void ReadLookupLayers(const PhaseResult& result, ServerLayers* layers) {
  if (!result.metrics_before.is_object() || !result.metrics_after.is_object()) {
    return;
  }
  const MetricsDelta delta(result.metrics_before, result.metrics_after);
  layers->inline_regions = delta.Gauge("par.pool.inline_overflow");
  layers->queue_wait_ms =
      1e3 * delta.HistMean("serve.stage.queue_wait.seconds");
  layers->batch_assembly_ms =
      1e3 * delta.HistMean("serve.stage.batch_assembly.seconds");
  layers->score_call_ms = 1e3 * delta.HistMean("serve.score.latency.seconds");
  const double served = delta.Gauge("serve.engine.requests_served");
  layers->score_calls_per_request =
      served > 0 ? delta.Gauge("serve.engine.batches_flushed") / served : 0.0;
  layers->batch_size_mean = delta.HistMean("serve.batch.size");
  layers->serialize_ms = 1e3 * delta.HistMean("serve.stage.serialize.seconds");
  // Client-observed mean lookup latency minus the server's stage sum.
  layers->overhead_ms =
      Mean(LatenciesMs(result, kLookup)) -
      (1e3 * delta.HistMean("serve.stage.parse.seconds") +
       layers->queue_wait_ms + layers->batch_assembly_ms +
       1e3 * delta.HistMean("serve.stage.score.seconds") +
       layers->serialize_ms);
}

/// Request parsing from the /metrics delta of the mixed fixed-rate phase,
/// whose inline subgraphs are the large bodies.
void ReadParseLayer(const PhaseResult& result, ServerLayers* layers) {
  if (!result.metrics_before.is_object() || !result.metrics_after.is_object()) {
    return;
  }
  const MetricsDelta delta(result.metrics_before, result.metrics_after);
  layers->parse_ms = 1e3 * delta.HistMean("serve.stage.parse.seconds");
}

/// Ingest-path layer figures from the /metrics delta of one phase.
void ReadIngestLayers(const PhaseResult& result, ServerLayers* layers) {
  if (!result.metrics_before.is_object() || !result.metrics_after.is_object()) {
    return;
  }
  const MetricsDelta delta(result.metrics_before, result.metrics_after);
  layers->ingest_server_ms =
      1e3 * delta.HistMean("stream.ingest.latency.seconds");
}

Result<std::unique_ptr<OutlierDetector>> RestoreDetector(
    const std::string& bundle_path) {
  Result<vgod::detectors::ModelBundle> bundle =
      vgod::detectors::LoadBundle(bundle_path);
  if (!bundle.ok()) return bundle.status();
  return vgod::detectors::MakeDetectorFromBundle(bundle.value());
}

/// Checks every node lookup of `result` against `expected` (full-graph
/// scores), bit for bit.
void CheckLookups(const PhaseResult& result, const std::vector<Lookup>& lookups,
                  const std::vector<double>& expected, const std::string& what,
                  Report* report) {
  int64_t checked = 0;
  int64_t wrong = 0;
  for (size_t i = 0; i < result.schedule.size(); ++i) {
    if (result.schedule[i].kind != kLookup) continue;
    const Completion& c = result.completions[i];
    if (c.status != 200) continue;
    const Lookup& lookup = lookups[result.schedule[i].index];
    std::vector<double> want;
    for (int node : lookup.nodes) want.push_back(expected[node]);
    ++checked;
    if (!ServedScoresAgree(c.body, lookup.nodes, want)) ++wrong;
  }
  report->Check(checked > 0 && wrong == 0, what,
                std::to_string(wrong) + " of " + std::to_string(checked));
}

/// A started server plus its load connections. Set-up is timed over
/// kSetupSpawns spawns (spawn -> first 200 from /healthz/ready); every
/// spawn but the last is stopped again, the last one serves the stage.
struct Served {
  ServerProcess server;
  LoadGenerator gen;
  std::vector<double> setup_s;
};

Status StartServed(const RunOptions& options, const Pipeline& pipeline,
                   bool streaming, const std::string& stage, Served* served,
                   Report* report) {
  const ServerArgs args{options.server_binary, pipeline.bundle_path,
                        pipeline.graph_path, streaming, kCompactEvery};
  Phase phase{stage + ".setup"};
  std::vector<double>& setup_s = served->setup_s;
  for (int i = 0; i < kSetupSpawns; ++i) {
    ++phase.attempted;
    if (i > 0) served->server.Stop();
    Status started = Status::Ok();
    setup_s.push_back(Timed(stage + ".setup", [&] {
      started = served->server.Start(args, 60.0);
    }));
    if (!started.ok()) {
      ++phase.failed;
      report->AddPhase(phase);
      return started;
    }
    ++phase.succeeded;
  }
  report->AddPhase(phase);
  report->Note(stage + ".setup_s", Median(setup_s));
  VGOD_RETURN_IF_ERROR(served->gen.Connect(served->server.port(), kConnections));
  return Status::Ok();
}

/// Stops the stage's server, checking it drains and exits cleanly, and
/// folds its VmHWM into the run's peak.
void StopServed(const std::string& stage, Served* served, Pipeline* pipeline,
                Report* report) {
  const double rss = served->server.PeakRssMb();
  report->Note(stage + ".peak_rss_mb", rss);
  pipeline->peak_rss_mb = std::max(pipeline->peak_rss_mb, rss);
  const int exit_code = served->server.Stop();
  report->Check(exit_code == 0, stage + ".clean_drain_exit",
                std::to_string(exit_code));
}

class StaticStage : public Stage {
 public:
  StaticStage(const RunOptions& options, Pipeline* pipeline, Report* report)
      : options_(options), pipeline_(pipeline), report_(report) {}

  Status Start() override {
    Span stage("static.start");
    Result<std::unique_ptr<OutlierDetector>> detector =
        RestoreDetector(pipeline_->bundle_path);
    if (!detector.ok()) return detector.status();
    detector_ = std::move(detector).value();
    const AttributedGraph& graph = pipeline_->inputs.graph;
    expected_ = detector_->Score(graph).score;
    lookups_ = MakeLookups(graph.num_nodes(), options_.seed);
    subgraphs_ = MakeSubgraphs(graph, options_.seed);
    for (const Subgraph& sub : subgraphs_) {
      subgraph_wires_.push_back(sub.wire);
      subgraph_expected_.push_back(detector_->Score(sub.graph).score);
    }
    VGOD_RETURN_IF_ERROR(
        StartServed(options_, *pipeline_, false, "static", &served_, report_));
    pipeline_->setup_s += Median(served_.setup_s);
    // Warm-up: lookups only, so lazy first-request work is not timed.
    report_->AddPhase(RunPhase("static.warmup", &served_.gen,
                               served_.server.port(), kWarmupSeconds, kNodeRps,
                               lookups_, 0.0, kSubgraph, {}, false)
                          .phase);
    return Status::Ok();
  }

  // One fixed-rate phase (lookups + inline subgraphs), then one rate search.
  Status Round(int round) override {
    Span stage("static.round");
    const int port = served_.server.port();
    std::vector<std::string> wires;
    const int count =
        static_cast<int>(kFixedShare * options_.seconds * kSubgraphRps);
    for (int i = 0; i < count; ++i) {
      wires.push_back(subgraph_wires_[(round * count + i) % subgraph_wires_.size()]);
    }
    PhaseResult fixed = RunPhase("static.fixed_rate", &served_.gen, port,
                                 kFixedShare * options_.seconds, kNodeRps,
                                 lookups_, kSubgraphRps, kSubgraph, wires, true);
    Accumulate(&fixed_phase_, fixed.phase);
    if (round == kRounds / 2 && options_.trace) {
      // The traced run adds one lookup-only phase of the same length and
      // rate, read for the lookup-path layers.
      ReadParseLayer(fixed, &pipeline_->server);
      PhaseResult lookups_only = RunPhase(
          "static.lookup_only", &served_.gen, port,
          kFixedShare * options_.seconds, kNodeRps, lookups_, 0.0, kSubgraph,
          {}, true);
      report_->AddPhase(lookups_only.phase);
      CheckLookups(lookups_only, lookups_, expected_,
                   "static.lookup_only_bit_identical", report_);
      ReadLookupLayers(lookups_only, &pipeline_->server);
      report_->Note("static.score_call_ms", pipeline_->server.score_call_ms);
    }
    CheckLookups(fixed, lookups_, expected_, "static.lookups_bit_identical",
                 report_);
    std::vector<int> local_nodes(kSubgraphNodes);
    std::iota(local_nodes.begin(), local_nodes.end(), 0);
    for (size_t i = 0; i < fixed.schedule.size(); ++i) {
      if (fixed.schedule[i].kind != kSubgraph ||
          fixed.completions[i].status != 200) {
        continue;
      }
      const size_t which =
          (round * count + fixed.schedule[i].index) % subgraph_wires_.size();
      ++subgraphs_checked_;
      if (!ServedScoresAgree(fixed.completions[i].body, local_nodes,
                             subgraph_expected_[which])) {
        ++subgraphs_wrong_;
      }
    }
    fixed_.push_back(std::move(fixed));
    // The rate search's result swings more between runs than any allowed
    // bound (README "Run-to-run spread"), so only the traced run pays for
    // it and reports it as a layer figure.
    if (options_.trace) search_best_.push_back(Search(round));
    return Status::Ok();
  }

  Status Finish() override {
    report_->AddPhase(fixed_phase_);
    if (options_.trace) report_->AddPhase(search_phase_);
    report_->Check(subgraphs_checked_ > 0 && subgraphs_wrong_ == 0,
                   "static.subgraphs_bit_identical",
                   std::to_string(subgraphs_wrong_) + " of " +
                       std::to_string(subgraphs_checked_));
    report_->EndToEnd("score_p50_ms", WindowedQuantile(fixed_, kLookup, 0.5),
                      "ms");
    // The p90s swing more between runs than any allowed bound (README
    // "Run-to-run spread"): per-layer figures and notes, not bounded.
    pipeline_->server.static_score_p90_ms =
        WindowedQuantile(fixed_, kLookup, 0.9);
    report_->Note("static.score_p90_ms", pipeline_->server.static_score_p90_ms);
    const std::vector<double> subgraph_ms = AllLatenciesMs(fixed_, kSubgraph);
    pipeline_->server.subgraph_p50_ms = Quantile(subgraph_ms, 0.5);
    report_->Note("static.subgraph_p50_ms", pipeline_->server.subgraph_p50_ms);
    if (options_.trace) {
      pipeline_->server.score_max_rps = Median(search_best_);
      report_->Note("static.score_max_rps", pipeline_->server.score_max_rps);
    }
    const std::vector<double> lookup_ms = AllLatenciesMs(fixed_, kLookup);
    report_->Note("static.score_p99_ms", Quantile(lookup_ms, 0.99));
    report_->Note("static.score_samples", static_cast<double>(lookup_ms.size()));
    report_->Note("static.subgraph_samples",
                  static_cast<double>(subgraph_ms.size()));
    StopServed("static", &served_, pipeline_, report_);
    return Status::Ok();
  }

 private:
  // One step of the rate search at `rps`: passes when nothing fails, the
  // p90 is within the latency limit and latency does not grow across the
  // step (no backlog).
  bool Step(double rps) {
    PhaseResult r = RunPhase("static.search", &served_.gen,
                             served_.server.port(), kSearchStepSeconds, rps,
                             lookups_, 0.0, kSubgraph, {}, false);
    Accumulate(&search_phase_, r.phase);
    CheckLookups(r, lookups_, expected_, "static.search_bit_identical",
                 report_);
    const std::vector<double> ms = LatenciesMs(r, kLookup);
    const size_t quarter = ms.size() / 4;
    const double head =
        Quantile(std::vector<double>(ms.begin(), ms.begin() + quarter), 0.5);
    const double tail =
        Quantile(std::vector<double>(ms.end() - quarter, ms.end()), 0.5);
    const double p90 = Quantile(ms, 0.9);
    const bool pass = r.phase.failed == 0 && p90 <= kLatencyLimitMs &&
                      tail - head <= kLatencyLimitMs / 4;
    std::fprintf(stderr,
                 "[perfbench] search %.1f rps: p50 %.1f p90 %.1f ms, head "
                 "%.1f tail %.1f ms -> %s\n",
                 rps, Quantile(ms, 0.5), p90, head, tail,
                 pass ? "pass" : "miss");
    return pass;
  }

  static double Grid(int k) {
    return kSearchStartRps * std::pow(kSearchFineFactor, k);
  }

  // Rates lie on one geometric grid. The first round climbs in strides of
  // 13 grid steps to the first miss, then from the last pass in strides of
  // 4, then of 1, each time to the next miss. Later rounds start one step
  // below the previous round's result and walk up to the first miss (or
  // down to the first pass).
  double Search(int round) {
    Span span("static.search");
    int pass = -1;
    if (round == 0 || last_pass_ < 0) {
      int miss = -1;  // lowest grid index known to miss (-1: none yet)
      for (int stride : kSearchStrides) {
        for (int k = pass < 0 ? 0 : pass + stride;
             (miss < 0 || k < miss) && Grid(k) <= kSearchMaxRps; k += stride) {
          if (!Step(Grid(k))) {
            miss = k;
            break;
          }
          pass = k;
        }
        if (pass < 0) break;
      }
    } else {
      int k = std::max(0, last_pass_ - 1);
      if (Step(Grid(k))) {
        pass = k;
        while (Grid(k + 1) <= kSearchMaxRps && Step(Grid(k + 1))) pass = ++k;
      } else {
        while (--k >= 0) {
          if (Step(Grid(k))) {
            pass = k;
            break;
          }
        }
      }
    }
    last_pass_ = pass;
    return pass >= 0 ? Grid(pass) : 0.0;
  }

  const RunOptions& options_;
  Pipeline* pipeline_;
  Report* report_;
  std::unique_ptr<OutlierDetector> detector_;
  std::vector<double> expected_;
  std::vector<Lookup> lookups_;
  std::vector<Subgraph> subgraphs_;
  std::vector<std::string> subgraph_wires_;
  std::vector<std::vector<double>> subgraph_expected_;
  Served served_;
  std::vector<PhaseResult> fixed_;
  Phase fixed_phase_{"static.fixed_rate"};
  Phase search_phase_{"static.rate_search"};
  std::vector<double> search_best_;
  int last_pass_ = -1;
  int64_t subgraphs_checked_ = 0;
  int64_t subgraphs_wrong_ = 0;
};

class StreamStage : public Stage {
 public:
  StreamStage(const RunOptions& options, Pipeline* pipeline, Report* report)
      : options_(options), pipeline_(pipeline), report_(report) {}

  Status Start() override {
    Span stage("stream.start");
    const AttributedGraph& graph = pipeline_->inputs.graph;
    lookups_ = MakeLookups(graph.num_nodes(), options_.seed);
    batches_per_round_ =
        static_cast<int>(kFixedShare * options_.seconds * kIngestRps);
    pipeline_->events = MakeEventBatches(graph, options_.seed,
                                         batches_per_round_, kEventsPerBatch);
    for (const EventBatch& batch : pipeline_->events) {
      ingest_wires_.push_back(PostRequest("/ingest", EventBatchJson(batch)));
    }
    VGOD_RETURN_IF_ERROR(
        StartServed(options_, *pipeline_, true, "stream", &served_, report_));
    pipeline_->setup_s += Median(served_.setup_s);
    return Status::Ok();
  }

  // One fixed-rate phase on a fresh server process: lookups plus the event
  // schedule, in order on the fourth connection. Each round replays the
  // same schedule from the boot graph, so per-process state (allocator,
  // page placement) is sampled three times instead of once.
  Status Round(int round) override {
    Span stage("stream.round");
    if (round > 0) {
      StopServed("stream", &served_, pipeline_, report_);
      VGOD_RETURN_IF_ERROR(served_.server.Start(
          ServerArgs{options_.server_binary, pipeline_->bundle_path,
                     pipeline_->graph_path, true, kCompactEvery},
          60.0));
      VGOD_RETURN_IF_ERROR(
          served_.gen.Connect(served_.server.port(), kConnections));
    }
    report_->AddPhase(RunPhase("stream.warmup", &served_.gen,
                               served_.server.port(), kWarmupSeconds, kNodeRps,
                               lookups_, 0.0, kIngest, {}, false)
                          .phase);
    model_.emplace(pipeline_->inputs.graph);
    PhaseResult fixed = RunPhase("stream.fixed_rate", &served_.gen,
                                 served_.server.port(),
                                 kFixedShare * options_.seconds, kNodeRps,
                                 lookups_, kIngestRps, kIngest, ingest_wires_,
                                 true);
    Accumulate(&fixed_phase_, fixed.phase);
    if (round == kRounds / 2) {
      ReadIngestLayers(fixed, &pipeline_->server);
      report_->Note("stream.ingest_server_ms",
                    pipeline_->server.ingest_server_ms);
    }

    // Every ingest reply against the benchmark's own model of the graph:
    // replies arrive in send order on one connection, so the model follows
    // the batches in schedule order.
    for (size_t i = 0; i < fixed.schedule.size(); ++i) {
      if (fixed.schedule[i].kind != kIngest) continue;
      const EventBatch& batch = pipeline_->events[fixed.schedule[i].index];
      int expected_touched = 0;
      for (const auto& event : batch.events) {
        expected_touched += model_->Apply(event);
      }
      const Completion& c = fixed.completions[i];
      if (c.status != 200) continue;
      ++ingest_checked_;
      if (!IngestReplyAgrees(c.body, batch.events.size(), expected_touched)) {
        ++ingest_wrong_;
      }
      Result<JsonValue> reply = vgod::obs::ParseJson(c.body);
      if (reply.ok() && round == kRounds / 2) {
        touched_ += reply.value().at("touched_nodes").number();
        events_ += reply.value().at("events_applied").number();
      }
      if (reply.ok() && reply.value().at("compacted").is_bool() &&
          reply.value().at("compacted").boolean()) {
        ++compactions_;
      }
    }
    fixed_.push_back(std::move(fixed));
    return Status::Ok();
  }

  Status Finish() override {
    report_->AddPhase(fixed_phase_);
    report_->EndToEnd("stream_score_p50_ms",
                      WindowedQuantile(fixed_, kLookup, 0.5), "ms");
    pipeline_->server.stream_score_p90_ms =
        WindowedQuantile(fixed_, kLookup, 0.9);
    report_->Note("stream.score_p90_ms", pipeline_->server.stream_score_p90_ms);
    // Client-side /ingest latency swings by up to 2x between runs of the
    // same inputs on a shared machine (README "Run-to-run spread"): a
    // per-layer figure and a note, not bounded.
    pipeline_->server.ingest_p50_ms = WindowedQuantile(fixed_, kIngest, 0.5);
    pipeline_->server.ingest_p90_ms = WindowedQuantile(fixed_, kIngest, 0.9);
    report_->Note("stream.ingest_p50_ms", pipeline_->server.ingest_p50_ms);
    report_->Note("stream.ingest_p90_ms", pipeline_->server.ingest_p90_ms);
    const std::vector<double> lookup_ms = AllLatenciesMs(fixed_, kLookup);
    report_->Note("stream.score_p99_ms", Quantile(lookup_ms, 0.99));
    report_->Note("stream.score_samples", static_cast<double>(lookup_ms.size()));
    report_->Note("stream.ingest_samples",
                  static_cast<double>(AllLatenciesMs(fixed_, kIngest).size()));
    report_->Note("stream.compactions", static_cast<double>(compactions_));
    report_->Check(ingest_checked_ > 0 && ingest_wrong_ == 0,
                   "stream.ingest_touched_nodes",
                   std::to_string(ingest_wrong_) + " of " +
                       std::to_string(ingest_checked_));
    report_->Check(compactions_ > 0, "stream.auto_compaction_reached");
    pipeline_->server.touched_per_event = events_ > 0 ? touched_ / events_ : 0;
    VGOD_RETURN_IF_ERROR(FinalChecks());
    StopServed("stream", &served_, pipeline_, report_);
    return Status::Ok();
  }

 private:
  // Final compaction, then the served scores against in-process Score() on
  // the benchmark's own rebuild of the final graph, and the watchlist
  // against neighbor variance recomputed on that rebuild.
  Status FinalChecks() {
    Result<std::unique_ptr<OutlierDetector>> detector =
        RestoreDetector(pipeline_->bundle_path);
    if (!detector.ok()) return detector.status();
    const int port = served_.server.port();
    Phase phase{"stream.final_checks"};
    int status = 0;
    ++phase.attempted;
    Result<std::string> compacted = HttpCall(
        port, "POST", "/ingest", "{\"events\":[],\"compact\":true}", &status);
    phase.failed += compacted.ok() && status == 200 ? 0 : 1;
    Result<AttributedGraph> rebuilt = model_->Rebuild();
    if (!rebuilt.ok()) return rebuilt.status();
    std::string all = "{\"nodes\":[";
    std::vector<int> all_nodes;
    for (int i = 0; i < rebuilt.value().num_nodes(); ++i) {
      if (i > 0) all.push_back(',');
      all += std::to_string(i);
      all_nodes.push_back(i);
    }
    all += "]}";
    ++phase.attempted;
    Result<std::string> scored = HttpCall(port, "POST", "/score", all, &status);
    const bool scored_ok = scored.ok() && status == 200;
    phase.failed += scored_ok ? 0 : 1;
    report_->Check(
        scored_ok &&
            ServedScoresAgree(scored.value(), all_nodes,
                              detector.value()->Score(rebuilt.value()).score),
        "stream.final_scores_bit_identical");
    ++phase.attempted;
    Result<std::string> watchlist =
        HttpCall(port, "GET", "/debug/watchlist?k=10", "", &status);
    const bool watchlist_ok = watchlist.ok() && status == 200;
    phase.failed += watchlist_ok ? 0 : 1;
    Result<Tensor> h =
        pipeline_->vgod->vbm().EmbedRows(rebuilt.value().attributes());
    report_->Check(
        watchlist_ok && h.ok() &&
            WatchlistAgrees(watchlist.value(),
                            NeighborVariance(rebuilt.value(), h.value()), 10),
        "stream.watchlist_matches_neighbor_variance");
    phase.succeeded = phase.attempted - phase.failed;
    report_->AddPhase(phase);
    return Status::Ok();
  }

  const RunOptions& options_;
  Pipeline* pipeline_;
  Report* report_;
  std::vector<Lookup> lookups_;
  int batches_per_round_ = 0;
  std::vector<std::string> ingest_wires_;
  std::optional<GraphModel> model_;
  Served served_;
  std::vector<PhaseResult> fixed_;
  Phase fixed_phase_{"stream.fixed_rate"};
  int64_t ingest_checked_ = 0;
  int64_t ingest_wrong_ = 0;
  int64_t compactions_ = 0;
  double touched_ = 0.0;  // over the middle round's replies
  double events_ = 0.0;
};

}  // namespace

std::unique_ptr<Stage> MakeStaticStage(const RunOptions& options,
                                       Pipeline* pipeline, Report* report) {
  return std::make_unique<StaticStage>(options, pipeline, report);
}

std::unique_ptr<Stage> MakeStreamStage(const RunOptions& options,
                                       Pipeline* pipeline, Report* report) {
  return std::make_unique<StreamStage>(options, pipeline, report);
}

}  // namespace perfbench
