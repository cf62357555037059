// The traced run's layer suite: times the public entry point of every
// module at the detect graph's shapes, from outside the program, and turns
// the server's /metrics deltas into per-layer figures. GFLOP/s and bytes
// moved are computed from operation counts and tensor sizes.
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "core/parallel.h"
#include "core/rng.h"
#include "datasets/io.h"
#include "datasets/registry.h"
#include "detectors/arm.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "detectors/vbm.h"
#include "eval/metrics.h"
#include "gnn/layers.h"
#include "graph/graph_ops.h"
#include "injection/injection.h"
#include "serve/engine.h"
#include "stream/delta_graph.h"
#include "stream/online_scorer.h"
#include "tensor/functional.h"
#include "tensor/kernels.h"

namespace perfbench {

namespace {

using vgod::stream::EventBatch;

/// Median wall time of `fn` over at least `min_reps` calls and about
/// `budget_s` seconds, each call in a span named `name`.
template <typename Fn>
double MedianSeconds(const std::string& name, int min_reps, double budget_s,
                     Fn&& fn) {
  std::vector<double> times;
  const double start = Now();
  while (static_cast<int>(times.size()) < min_reps ||
         (Now() - start < budget_s && times.size() < 1000)) {
    times.push_back(Timed(name, fn));
  }
  return Median(times);
}

}  // namespace

Status RunLayerSuite(const RunOptions& options, const Pipeline& pipeline,
                     Report* report) {
  Span suite("layers");
  vgod::par::SetNumThreads(kKernelThreads);
  const AttributedGraph& graph = pipeline.inputs.graph;
  const uint64_t seed = options.seed;
  const vgod::detectors::VgodConfig config = BenchVgodConfig(seed);
  const int n = graph.num_nodes();
  const int d = graph.attribute_dim();
  vgod::Rng rng(seed ^ 0x1a7e55ULL);
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) { report->Metric(name, value, unit); };

  // ---- tensor: ARM's feature transform X (n x d) W (d x h) and its weight
  // gradient X^T G; Dominant's structure decoder Z Z^T (n x 64).
  {
    const int h = config.arm.hidden_dim;
    const Tensor x = graph.attributes();
    const Tensor w = Tensor::RandomNormal(d, h, 0.0f, 0.1f, &rng);
    const Tensor g = Tensor::RandomNormal(n, h, 0.0f, 0.1f, &rng);
    const double flops = 2.0 * n * d * h;
    add("tensor.matmul.gflops",
        flops / MedianSeconds("layer.tensor.matmul", 20, 0.3,
                              [&] { vgod::kernels::MatMul(x, w); }) / 1e9,
        "GFLOP/s");
    add("tensor.matmul_tn.gflops",
        flops / MedianSeconds("layer.tensor.matmul_tn", 20, 0.3,
                              [&] { vgod::kernels::MatMulTN(x, g); }) / 1e9,
        "GFLOP/s");
    const int zh = vgod::detectors::DominantConfig{}.hidden_dim;
    const Tensor z = Tensor::RandomNormal(n, zh, 0.0f, 0.1f, &rng);
    add("tensor.matmul_nt.gflops",
        2.0 * n * n * zh /
            MedianSeconds("layer.tensor.matmul_nt", 3, 0.5,
                          [&] { vgod::kernels::MatMulNT(z, z); }) / 1e9,
        "GFLOP/s");
  }

  // ---- graph: GCN-normalized Spmm (Dominant's propagation) and the
  // neighbor-variance kernel at VBM's hidden width.
  {
    const AttributedGraph looped = graph.WithSelfLoops();
    const std::vector<float> weights = vgod::graph_ops::GcnNormWeights(looped);
    const int h = vgod::detectors::DominantConfig{}.hidden_dim;
    const Tensor x = Tensor::RandomNormal(n, h, 0.0f, 1.0f, &rng);
    const double e = static_cast<double>(looped.num_directed_edges());
    // row_ptr + (col, weight) per edge + one gathered row per edge + output.
    const double bytes = 8.0 * (n + 1) + 8.0 * e + 4.0 * e * h + 4.0 * n * h;
    add("graph.spmm.gbps",
        bytes / MedianSeconds("layer.graph.spmm", 20, 0.3,
                              [&] { vgod::graph_ops::Spmm(looped, weights, x); }) /
            1e9,
        "GB/s");
    const int vh = config.vbm.hidden_dim;
    const Tensor emb = Tensor::RandomNormal(n, vh, 0.0f, 1.0f, &rng);
    const double ge = static_cast<double>(graph.num_directed_edges());
    // Neighbor mean (one add per edge-column, one divide per node-column)
    // then (sub, mul, add) per edge-column.
    const double flops = 4.0 * ge * vh + 1.0 * n * vh;
    add("graph.neighbor_variance.gflops",
        flops / MedianSeconds("layer.graph.neighbor_variance", 20, 0.3,
                              [&] {
                                vgod::graph_ops::NeighborVarianceScore(graph,
                                                                       emb);
                              }) /
            1e9,
        "GFLOP/s");
  }

  // ---- gnn: ARM's GAT layer at its hidden width.
  {
    const int h = config.arm.hidden_dim;
    auto looped =
        std::make_shared<const AttributedGraph>(graph.WithSelfLoops());
    vgod::gnn::GatConv gat(h, h, &rng);
    const vgod::Variable x = vgod::Variable::Parameter(
        Tensor::RandomNormal(n, h, 0.0f, 1.0f, &rng));
    add("gnn.gat_forward_ms",
        1e3 * MedianSeconds("layer.gnn.gat_forward", 10, 0.3,
                            [&] { gat.Forward(looped, x); }),
        "ms");
    std::vector<double> backward;
    for (int i = 0; i < 10; ++i) {
      vgod::Variable loss = vgod::ag::MeanAll(gat.Forward(looped, x));
      backward.push_back(Timed("layer.gnn.gat_backward", [&] { loss.Backward(); }));
    }
    add("gnn.gat_backward_ms", 1e3 * Median(backward), "ms");
  }

  // ---- detectors: VGOD's components, its combination, Dominant.
  {
    vgod::detectors::Vbm vbm(config.vbm);
    vgod::detectors::Arm arm(config.arm);
    add("detectors.vbm_fit_s",
        Timed("layer.detectors.vbm_fit", [&] { (void)vbm.Fit(graph); }), "s");
    add("detectors.arm_fit_s",
        Timed("layer.detectors.arm_fit", [&] { (void)arm.Fit(graph); }), "s");
    std::vector<double> structural, contextual;
    add("detectors.vbm_score_ms",
        1e3 * MedianSeconds("layer.detectors.vbm_score", 5, 0.2,
                            [&] { structural = vbm.Score(graph).score; }),
        "ms");
    add("detectors.arm_score_ms",
        1e3 * MedianSeconds("layer.detectors.arm_score", 5, 0.2,
                            [&] { contextual = arm.Score(graph).score; }),
        "ms");
    add("detectors.combine_ms",
        1e3 * MedianSeconds("layer.detectors.combine", 50, 0.1, [&] {
          vgod::eval::CombineScores(vgod::eval::MeanStdNormalize(structural),
                                    vgod::eval::MeanStdNormalize(contextual));
        }),
        "ms");
    vgod::detectors::Dominant dominant(BenchDominantConfig(seed));
    add("detectors.dominant_epoch_ms",
        1e3 *
            Timed("layer.detectors.dominant_fit",
                  [&] { (void)dominant.Fit(graph); }) /
            kDominantEpochs,
        "ms");
  }

  // ---- datasets / injection: the detect set-up's two halves.
  {
    Result<vgod::datasets::Dataset> dataset = Status::Internal("unset");
    add("datasets.generate_ms",
        1e3 * MedianSeconds("layer.datasets.generate", 5, 0.2, [&] {
          dataset = vgod::datasets::MakeDataset(kDataset, options.scale, seed);
        }),
        "ms");
    if (!dataset.ok()) return dataset.status();
    add("injection.inject_ms",
        1e3 * MedianSeconds("layer.injection.inject", 5, 0.2, [&] {
          vgod::Rng inject_rng(seed ^ 0x5eed1e55ULL);
          (void)vgod::injection::InjectStandard(
              dataset.value().graph, dataset.value().default_num_cliques,
              kCliqueSize, kCandidateSet, &inject_rng);
        }),
        "ms");
  }

  // ---- serve-side set-up pieces: graph file read, bundle restore,
  // streaming enable (the initial embedding).
  {
    Result<AttributedGraph> loaded = Status::Internal("unset");
    add("datasets.graph_load_ms",
        1e3 * MedianSeconds("layer.datasets.graph_load", 3, 0.3, [&] {
          loaded = vgod::datasets::LoadGraph(pipeline.graph_path);
        }),
        "ms");
    if (!loaded.ok()) return loaded.status();
    auto restore = [&]() -> Result<std::unique_ptr<vgod::detectors::OutlierDetector>> {
      Result<vgod::detectors::ModelBundle> bundle =
          vgod::detectors::LoadBundle(pipeline.bundle_path);
      if (!bundle.ok()) return bundle.status();
      return vgod::detectors::MakeDetectorFromBundle(bundle.value());
    };
    bool restored = true;
    add("detectors.bundle_restore_ms",
        1e3 * MedianSeconds("layer.detectors.bundle_restore", 5, 0.2,
                            [&] { restored = restore().ok() && restored; }),
        "ms");
    if (!restored) return Status::Internal("bundle restore failed");
    std::vector<double> enable_s;
    for (int i = 0; i < 3; ++i) {
      Result<std::unique_ptr<vgod::detectors::OutlierDetector>> detector =
          restore();
      if (!detector.ok()) return detector.status();
      vgod::serve::ScoringEngine engine(std::move(detector).value(),
                                        loaded.value());
      Status enabled = Status::Ok();
      enable_s.push_back(Timed("layer.stream.enable",
                               [&] { enabled = engine.EnableStreaming(); }));
      VGOD_RETURN_IF_ERROR(enabled);
    }
    add("stream.enable_ms", 1e3 * Median(enable_s), "ms");
  }

  // ---- stream: replay the serve-stream event schedule in-process against
  // the public store/scorer API, batch by batch as the engine does.
  {
    const std::vector<EventBatch>& batches = pipeline.events;
    vgod::stream::DeltaGraphStore store{AttributedGraph(graph)};
    vgod::stream::OnlineScorerConfig scorer_config;
    const vgod::detectors::Vbm* vbm = &pipeline.vgod->vbm();
    scorer_config.embed = [vbm](const Tensor& rows) {
      return vbm->EmbedRows(rows);
    };
    scorer_config.include_self = vbm->config().self_loop;
    Result<vgod::stream::OnlineScorer> scorer =
        vgod::stream::OnlineScorer::Create(&store, scorer_config);
    if (!scorer.ok()) return scorer.status();
    double parse_s = 0, validate_s = 0, apply_s = 0;
    int64_t events = 0;
    std::vector<double> snapshot_s, compact_s;
    for (const EventBatch& batch : batches) {
      const std::string text = EventBatchJson(batch);
      Result<vgod::stream::EventBatch> parsed = Status::Internal("unset");
      parse_s += Timed("layer.stream.parse", [&] {
        Result<vgod::obs::JsonValue> json = vgod::obs::ParseJson(text);
        if (json.ok()) {
          parsed = vgod::stream::ParseEventBatch(json.value(),
                                                 kMaxEventsPerBatch);
        }
      });
      if (!parsed.ok()) return parsed.status();
      Status valid = Status::Ok();
      validate_s += Timed("layer.stream.validate", [&] {
        valid = store.ValidateBatch(parsed.value().events);
      });
      VGOD_RETURN_IF_ERROR(valid);
      Status applied = Status::Ok();
      apply_s += Timed("layer.stream.apply", [&] {
        for (const auto& event : parsed.value().events) {
          store.ApplyOne(event);
          Result<int> touched = scorer.value().ApplyOne(event);
          if (!touched.ok()) applied = touched.status();
        }
      });
      VGOD_RETURN_IF_ERROR(applied);
      events += static_cast<int64_t>(parsed.value().events.size());
      if (store.delta_ops() >= kCompactEvery) {
        compact_s.push_back(Timed("layer.stream.compact", [&] { store.Compact(); }));
      }
      snapshot_s.push_back(Timed("layer.stream.snapshot", [&] { store.Snapshot(); }));
    }
    const double per_event_us = events > 0 ? 1e6 / static_cast<double>(events) : 0;
    add("stream.parse_us_per_event", parse_s * per_event_us, "us");
    add("stream.validate_us_per_event", validate_s * per_event_us, "us");
    add("stream.apply_us_per_event", apply_s * per_event_us, "us");
    add("stream.snapshot_ms", 1e3 * Median(snapshot_s), "ms");
    add("stream.compact_ms", 1e3 * Median(compact_s), "ms");
  }

  // ---- server layers: /metrics deltas of the serve stages' fixed-rate
  // phases (score path from serve-static, ingest path from serve-stream).
  const ServerLayers& server = pipeline.server;
  add("par.inline_regions", server.inline_regions, "count");
  add("engine.queue_wait_ms", server.queue_wait_ms, "ms");
  add("engine.batch_assembly_ms", server.batch_assembly_ms, "ms");
  add("engine.score_call_ms", server.score_call_ms, "ms");
  add("engine.score_calls_per_request", server.score_calls_per_request, "ratio");
  add("engine.batch_size_mean", server.batch_size_mean, "count");
  add("http.parse_ms", server.parse_ms, "ms");
  add("http.serialize_ms", server.serialize_ms, "ms");
  add("http.overhead_ms", server.overhead_ms, "ms");
  add("stream.touched_per_event", server.touched_per_event, "count");
  add("stream.ingest_server_ms", server.ingest_server_ms, "ms");
  add("stream.ingest_p50_ms", server.ingest_p50_ms, "ms");
  add("stream.ingest_p90_ms", server.ingest_p90_ms, "ms");
  add("static.score_p90_ms", server.static_score_p90_ms, "ms");
  add("static.score_max_rps", server.score_max_rps, "1/s");
  add("static.subgraph_p50_ms", server.subgraph_p50_ms, "ms");
  add("stream.score_p90_ms", server.stream_score_p90_ms, "ms");
  return Status::Ok();
}

}  // namespace perfbench
