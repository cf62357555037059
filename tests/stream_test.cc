// Tests for the streaming graph subsystem (docs/STREAMING.md): delta
// store overlay semantics and all-or-nothing validation, snapshot/compact
// copy-on-write behavior, the incremental OnlineScorer's equivalence with
// the from-scratch NeighborVarianceScore kernel under randomized event
// sequences (with interleaved compactions), watchlist ordering, the
// engine's ingest path, the exactness of incremental score refreshes
// against a full Score() after every published version, and concurrent
// ingest+score tests (run under TSan via the `threads` ctest label).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "core/rng.h"
#include "datasets/synthetic.h"
#include "detectors/arm.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"
#include "graph/graph.h"
#include "graph/graph_ops.h"
#include "obs/metrics.h"
#include "serve/engine.h"
#include "stream/delta_graph.h"
#include "stream/events.h"
#include "stream/online_scorer.h"
#include "tensor/tensor.h"

namespace vgod {
namespace {

using stream::DeltaGraphStore;
using stream::EventBatch;
using stream::GraphEvent;
using stream::OnlineScorer;
using stream::OnlineScorerConfig;

AttributedGraph StreamTestGraph(int n = 60, uint64_t seed = 11,
                                int attribute_dim = 6) {
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = n;
  spec.num_communities = 3;
  spec.avg_degree = 4.0;
  spec.attribute_dim = attribute_dim;
  spec.topic_dims_per_community = 2;
  Rng rng(seed);
  return datasets::GeneratePlantedPartition(spec, &rng);
}

std::vector<float> RandomRow(int dim, Rng* rng) {
  std::vector<float> row(dim);
  for (float& x : row) x = static_cast<float>(rng->Uniform(-1.0, 1.0));
  return row;
}

/// Picks a valid random event against the store's CURRENT state: an edge
/// toggle (add when absent, remove when present), an attribute update, or
/// a node append.
GraphEvent RandomEvent(const DeltaGraphStore& store, Rng* rng) {
  const int n = store.num_nodes();
  const int dim = store.attribute_dim();
  const double kind = rng->Uniform();
  if (kind < 0.55) {
    int u = static_cast<int>(rng->Next() % n);
    int v = static_cast<int>(rng->Next() % n);
    if (u == v) v = (v + 1) % n;
    return store.HasEdge(u, v) ? GraphEvent::RemoveEdge(u, v)
                               : GraphEvent::AddEdge(u, v);
  }
  if (kind < 0.85) {
    return GraphEvent::UpdateAttributes(static_cast<int>(rng->Next() % n),
                                        RandomRow(dim, rng));
  }
  return GraphEvent::AddNode(RandomRow(dim, rng));
}

/// From-scratch reference: the batch NeighborVarianceScore kernel over the
/// store's current snapshot, mirroring the detector's self-loop technique
/// via WithSelfLoops() when `self_loops` (the incremental scorer folds the
/// self term analytically instead).
std::vector<float> FromScratchScores(DeltaGraphStore* store,
                                     bool self_loops) {
  std::shared_ptr<const AttributedGraph> snapshot = store->Snapshot();
  if (self_loops) {
    const AttributedGraph with_self = snapshot->WithSelfLoops();
    Tensor scores =
        graph_ops::NeighborVarianceScore(with_self, with_self.attributes());
    return std::vector<float>(scores.data(),
                              scores.data() + with_self.num_nodes());
  }
  Tensor scores =
      graph_ops::NeighborVarianceScore(*snapshot, snapshot->attributes());
  return std::vector<float>(scores.data(),
                            scores.data() + snapshot->num_nodes());
}

void ExpectScoresNear(const std::vector<float>& got,
                      const std::vector<float>& want, double tolerance) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tolerance) << "node " << i;
  }
}

// ---------------------------------------------------------------------------
// Delta store.

TEST(DeltaGraphTest, OverlayMatchesBaseThenMutations) {
  AttributedGraph base = StreamTestGraph();
  const int n = base.num_nodes();
  DeltaGraphStore store(StreamTestGraph());
  ASSERT_EQ(store.num_nodes(), n);
  for (int u = 0; u < n; ++u) {
    EXPECT_EQ(store.Degree(u), base.Degree(u));
    const std::vector<int32_t> row = store.CurrentNeighbors(u);
    ASSERT_EQ(static_cast<int>(row.size()), base.Degree(u));
  }

  // Find one absent and one present edge pair.
  int absent_u = 0, absent_v = 2;
  while (base.HasEdge(absent_u, absent_v)) absent_v = (absent_v + 1) % n;
  ASSERT_GT(base.Degree(1), 0);
  const int present_v = base.Neighbors(1)[0];

  const GraphEvent add = GraphEvent::AddEdge(absent_u, absent_v);
  const GraphEvent remove = GraphEvent::RemoveEdge(1, present_v);
  ASSERT_TRUE(store.ValidateBatch({add, remove}).ok());
  store.ApplyOne(add);
  store.ApplyOne(remove);
  EXPECT_TRUE(store.HasEdge(absent_u, absent_v));
  EXPECT_TRUE(store.HasEdge(absent_v, absent_u));  // Undirected: both ways.
  EXPECT_FALSE(store.HasEdge(1, present_v));
  EXPECT_EQ(store.Degree(absent_u), base.Degree(absent_u) + 1);
  EXPECT_EQ(store.Degree(1), base.Degree(1) - 1);

  // Snapshot materializes the overlay; neighbor rows stay sorted.
  std::shared_ptr<const AttributedGraph> snapshot = store.Snapshot();
  EXPECT_TRUE(snapshot->HasEdge(absent_u, absent_v));
  EXPECT_FALSE(snapshot->HasEdge(1, present_v));
  for (int u = 0; u < n; ++u) {
    std::span<const int32_t> row = snapshot->Neighbors(u);
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
  }
  // Cached until the next mutation: same shared snapshot object.
  EXPECT_EQ(snapshot.get(), store.Snapshot().get());

  // Toggling back cancels the overlay instead of stacking entries.
  const GraphEvent undo_add = GraphEvent::RemoveEdge(absent_u, absent_v);
  const GraphEvent undo_remove = GraphEvent::AddEdge(1, present_v);
  ASSERT_TRUE(store.ValidateBatch({undo_add, undo_remove}).ok());
  store.ApplyOne(undo_add);
  store.ApplyOne(undo_remove);
  EXPECT_EQ(store.overlay_edges(), 0);
}

TEST(DeltaGraphTest, ValidateBatchIsAllOrNothing) {
  DeltaGraphStore store(StreamTestGraph());
  const int n = store.num_nodes();
  const int dim = store.attribute_dim();
  const int64_t ops_before = store.delta_ops();

  int absent_v = 2;
  while (store.HasEdge(0, absent_v)) absent_v = (absent_v + 1) % n;

  // Each batch starts with a valid event; the bad one must reject the
  // whole batch without applying anything.
  const std::vector<std::vector<GraphEvent>> hostile = {
      {GraphEvent::AddEdge(0, absent_v), GraphEvent::AddEdge(0, n + 7)},
      {GraphEvent::AddEdge(0, absent_v), GraphEvent::AddEdge(3, 3)},
      {GraphEvent::AddEdge(0, absent_v), GraphEvent::AddEdge(0, absent_v)},
      {GraphEvent::AddEdge(0, absent_v), GraphEvent::RemoveEdge(0, absent_v),
       GraphEvent::RemoveEdge(0, absent_v)},
      {GraphEvent::UpdateAttributes(0, std::vector<float>(dim + 1, 0.f))},
      {GraphEvent::AddNode(std::vector<float>(dim - 1, 0.f))},
      {GraphEvent::UpdateAttributes(-1, std::vector<float>(dim, 0.f))},
  };
  for (size_t i = 0; i < hostile.size(); ++i) {
    EXPECT_FALSE(store.ValidateBatch(hostile[i]).ok()) << "batch " << i;
  }
  EXPECT_EQ(store.delta_ops(), ops_before);
  EXPECT_EQ(store.num_nodes(), n);

  // Intra-batch tracking: add then remove the same edge is valid, as is
  // adding a node and immediately updating its attributes.
  EXPECT_TRUE(store
                  .ValidateBatch({GraphEvent::AddEdge(0, absent_v),
                                  GraphEvent::RemoveEdge(0, absent_v)})
                  .ok());
  EXPECT_TRUE(store
                  .ValidateBatch(
                      {GraphEvent::AddNode(std::vector<float>(dim, 0.f)),
                       GraphEvent::UpdateAttributes(
                           n, std::vector<float>(dim, 1.f))})
                  .ok());
}

TEST(DeltaGraphTest, CompactionPreservesGraphAndClearsOverlay) {
  DeltaGraphStore store(StreamTestGraph());
  Rng rng(5);
  for (int i = 0; i < 200; ++i) {
    const GraphEvent event = RandomEvent(store, &rng);
    ASSERT_TRUE(store.ValidateBatch({event}).ok());
    store.ApplyOne(event);
  }
  std::shared_ptr<const AttributedGraph> before = store.Snapshot();
  store.Compact();
  EXPECT_EQ(store.delta_ops(), 0);
  EXPECT_EQ(store.overlay_edges(), 0);
  EXPECT_EQ(store.compactions(), 1);

  std::shared_ptr<const AttributedGraph> after = store.Snapshot();
  ASSERT_EQ(after->num_nodes(), before->num_nodes());
  EXPECT_EQ(after->num_directed_edges(), before->num_directed_edges());
  for (int u = 0; u < after->num_nodes(); ++u) {
    std::span<const int32_t> b = before->Neighbors(u);
    std::span<const int32_t> a = after->Neighbors(u);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "node " << u;
  }
}

// ---------------------------------------------------------------------------
// Incremental scorer equivalence.

void RunEquivalence(bool include_self, uint64_t seed) {
  DeltaGraphStore store(StreamTestGraph(60, seed));
  OnlineScorerConfig config;  // Identity embedding.
  config.include_self = include_self;
  Result<OnlineScorer> scorer = OnlineScorer::Create(&store, config);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();
  ExpectScoresNear(scorer.value().Scores(),
                   FromScratchScores(&store, include_self), 1e-5);

  Rng rng(seed * 31 + 7);
  for (int i = 1; i <= 300; ++i) {
    const GraphEvent event = RandomEvent(store, &rng);
    ASSERT_TRUE(store.ValidateBatch({event}).ok());
    store.ApplyOne(event);
    Result<int> touched = scorer.value().ApplyOne(event);
    ASSERT_TRUE(touched.ok()) << touched.status().ToString();
    EXPECT_GE(touched.value(), 1);
    // Interleave compactions mid-sequence: aggregates must survive the
    // base swap because they depend only on the logical graph.
    if (i % 97 == 0) store.Compact();
    if (i % 25 == 0) {
      ExpectScoresNear(scorer.value().Scores(),
                       FromScratchScores(&store, include_self), 1e-5);
    }
  }
  ExpectScoresNear(scorer.value().Scores(),
                   FromScratchScores(&store, include_self), 1e-5);
}

TEST(OnlineScorerTest, RandomizedEquivalence) { RunEquivalence(false, 3); }

TEST(OnlineScorerTest, RandomizedEquivalenceWithSelfTerm) {
  RunEquivalence(true, 4);
}

TEST(OnlineScorerTest, VbmEmbeddingEquivalence) {
  AttributedGraph graph = StreamTestGraph(60, 9, 12);
  detectors::VbmConfig vbm_config;
  vbm_config.hidden_dim = 8;
  vbm_config.epochs = 3;
  detectors::Vbm vbm(vbm_config);
  ASSERT_TRUE(vbm.Fit(graph).ok());

  DeltaGraphStore store(std::move(graph));
  OnlineScorerConfig config;
  config.embed = [&vbm](const Tensor& rows) { return vbm.EmbedRows(rows); };
  Result<OnlineScorer> scorer = OnlineScorer::Create(&store, config);
  ASSERT_TRUE(scorer.ok()) << scorer.status().ToString();

  auto reference = [&]() {
    std::shared_ptr<const AttributedGraph> snapshot = store.Snapshot();
    Result<Tensor> h = vbm.EmbedRows(snapshot->attributes());
    VGOD_CHECK(h.ok()) << h.status().ToString();
    Tensor scores = graph_ops::NeighborVarianceScore(*snapshot, h.value());
    return std::vector<float>(scores.data(),
                              scores.data() + snapshot->num_nodes());
  };
  ExpectScoresNear(scorer.value().Scores(), reference(), 1e-5);

  Rng rng(17);
  for (int i = 1; i <= 150; ++i) {
    const GraphEvent event = RandomEvent(store, &rng);
    ASSERT_TRUE(store.ValidateBatch({event}).ok());
    store.ApplyOne(event);
    ASSERT_TRUE(scorer.value().ApplyOne(event).ok());
    if (i % 50 == 0) store.Compact();
    if (i % 30 == 0) {
      ExpectScoresNear(scorer.value().Scores(), reference(), 1e-5);
    }
  }
  ExpectScoresNear(scorer.value().Scores(), reference(), 1e-5);
}

TEST(OnlineScorerTest, EdgeEventTouchesEndpointsOnly) {
  DeltaGraphStore store(StreamTestGraph());
  Result<OnlineScorer> scorer =
      OnlineScorer::Create(&store, OnlineScorerConfig{});
  ASSERT_TRUE(scorer.ok());
  int v = 2;
  while (store.HasEdge(0, v)) v = (v + 1) % store.num_nodes();
  const GraphEvent add = GraphEvent::AddEdge(0, v);
  ASSERT_TRUE(store.ValidateBatch({add}).ok());
  store.ApplyOne(add);
  Result<int> touched = scorer.value().ApplyOne(add);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(touched.value(), 2);  // Exactly the two endpoints.

  // An attribute update touches the node plus its current neighbors.
  const int deg = store.Degree(v);
  const GraphEvent update = GraphEvent::UpdateAttributes(
      v, std::vector<float>(store.attribute_dim(), 0.25f));
  ASSERT_TRUE(store.ValidateBatch({update}).ok());
  store.ApplyOne(update);
  touched = scorer.value().ApplyOne(update);
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(touched.value(), deg + 1);
}

TEST(OnlineScorerTest, WatchlistOrderingMatchesScores) {
  DeltaGraphStore store(StreamTestGraph(50, 21));
  Result<OnlineScorer> scorer =
      OnlineScorer::Create(&store, OnlineScorerConfig{});
  ASSERT_TRUE(scorer.ok());
  Rng rng(23);
  for (int i = 0; i < 120; ++i) {
    const GraphEvent event = RandomEvent(store, &rng);
    ASSERT_TRUE(store.ValidateBatch({event}).ok());
    store.ApplyOne(event);
    ASSERT_TRUE(scorer.value().ApplyOne(event).ok());
  }

  const std::vector<std::pair<int, double>> top = scorer.value().TopK(10);
  ASSERT_EQ(top.size(), 10u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
  // The watchlist head is the global argmax of the full score vector.
  const std::vector<float> all = scorer.value().Scores();
  const int argmax = static_cast<int>(
      std::max_element(all.begin(), all.end()) - all.begin());
  EXPECT_DOUBLE_EQ(top[0].second, scorer.value().Score(top[0].first));
  EXPECT_FLOAT_EQ(all[argmax], static_cast<float>(top[0].second));

  // k beyond n clamps; k <= 0 is empty.
  EXPECT_EQ(scorer.value().TopK(10000).size(),
            static_cast<size_t>(store.num_nodes()));
  EXPECT_TRUE(scorer.value().TopK(0).empty());
}

// ---------------------------------------------------------------------------
// Engine integration.

std::unique_ptr<serve::ScoringEngine> StreamingEngine(
    const AttributedGraph& graph, serve::StreamingOptions stream_options = {},
    int num_threads = 2) {
  detectors::VbmConfig config;
  config.hidden_dim = 8;
  config.epochs = 3;
  auto detector = std::make_unique<detectors::Vbm>(config);
  VGOD_CHECK(detector->Fit(graph).ok());
  serve::EngineConfig engine_config;
  engine_config.num_threads = num_threads;
  auto engine = std::make_unique<serve::ScoringEngine>(
      std::move(detector), graph, engine_config);
  VGOD_CHECK(engine->EnableStreaming(stream_options).ok());
  VGOD_CHECK(engine->Start().ok());
  return engine;
}

TEST(EngineStreamingTest, IngestAppliesAndPublishesSnapshots) {
  AttributedGraph graph = StreamTestGraph(50, 31, 12);
  const int n = graph.num_nodes();
  std::unique_ptr<serve::ScoringEngine> engine = StreamingEngine(graph);

  std::string reason;
  EXPECT_TRUE(engine->Ready(&reason)) << reason;

  int absent_v = 2;
  while (graph.HasEdge(0, absent_v)) absent_v = (absent_v + 1) % n;
  EventBatch batch;
  batch.events.push_back(GraphEvent::AddEdge(0, absent_v));
  batch.events.push_back(GraphEvent::AddNode(
      std::vector<float>(graph.attribute_dim(), 0.5f)));
  Result<serve::IngestResult> applied = engine->Ingest(batch, 99);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied.value().request_id, 99u);
  EXPECT_EQ(applied.value().events_applied, 2);
  EXPECT_GE(applied.value().touched_nodes, 3);
  EXPECT_EQ(applied.value().num_nodes, n + 1);

  // The published snapshot reflects the mutation; the appended node is
  // immediately scoreable.
  EXPECT_TRUE(engine->CurrentGraph()->HasEdge(0, absent_v));
  EXPECT_EQ(engine->CurrentGraph()->num_nodes(), n + 1);
  Result<serve::ScoreResult> scored = engine->ScoreNodes({0, n});
  ASSERT_TRUE(scored.ok()) << scored.status().ToString();
  EXPECT_EQ(scored.value().score.size(), 2u);

  // A hostile batch is rejected whole and nothing changes.
  EventBatch hostile;
  hostile.events.push_back(GraphEvent::AddEdge(0, n + 50));
  EXPECT_FALSE(engine->Ingest(hostile).ok());
  EXPECT_EQ(engine->CurrentGraph()->num_nodes(), n + 1);

  // Forced compaction via batch.compact.
  EventBatch compact_batch;
  compact_batch.compact = true;
  Result<serve::IngestResult> compacted = engine->Ingest(compact_batch);
  ASSERT_TRUE(compacted.ok());
  EXPECT_TRUE(compacted.value().compacted);
  EXPECT_EQ(compacted.value().delta_ops, 0);

  Result<std::vector<serve::WatchlistEntry>> watchlist = engine->Watchlist(5);
  ASSERT_TRUE(watchlist.ok());
  ASSERT_EQ(watchlist.value().size(), 5u);
  for (size_t i = 1; i < watchlist.value().size(); ++i) {
    EXPECT_GE(watchlist.value()[i - 1].score, watchlist.value()[i].score);
  }

  engine->Shutdown();
  EXPECT_FALSE(engine->Ready(&reason));
  EXPECT_FALSE(engine->Ingest(batch).ok());
}

TEST(EngineStreamingTest, EachGraphVersionScoresOnce) {
  AttributedGraph graph = StreamTestGraph(50, 37, 12);
  std::unique_ptr<serve::ScoringEngine> engine = StreamingEngine(graph);
  // Scoring is lazy: neither EnableStreaming() nor Start() scores.
  EXPECT_EQ(engine->score_calls(), 0);

  int absent_v = 3;
  while (graph.HasEdge(1, absent_v)) {
    absent_v = (absent_v + 1) % graph.num_nodes();
    if (absent_v == 1) ++absent_v;
  }
  EventBatch batch;
  batch.events.push_back(GraphEvent::AddEdge(1, absent_v));
  batch.events.push_back(GraphEvent::UpdateAttributes(
      2, std::vector<float>(graph.attribute_dim(), 0.25f)));
  ASSERT_TRUE(engine->Ingest(batch).ok());

  // The first read after the publish refreshes the new version once...
  Result<serve::ScoreResult> first = engine->ScoreNodes({0, 1, 2});
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(engine->score_calls(), 1);
  // ...and the next read of the same version is answered from the cache.
  Result<serve::ScoreResult> second = engine->ScoreNodes({1, absent_v});
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(engine->score_calls(), 1);

  // Both reads saw the ingested batch, bit for bit.
  const detectors::DetectorOutput expected =
      engine->detector().Score(*engine->CurrentGraph());
  for (const serve::ScoreResult* reply : {&first.value(), &second.value()}) {
    for (size_t k = 0; k < reply->nodes.size(); ++k) {
      EXPECT_EQ(reply->score[k], expected.score[reply->nodes[k]]);
    }
  }

  // The next ingest publishes a new version: one more refresh.
  EventBatch undo;
  undo.events.push_back(GraphEvent::RemoveEdge(1, absent_v));
  ASSERT_TRUE(engine->Ingest(undo).ok());
  ASSERT_TRUE(engine->ScoreNodes({0}).ok());
  ASSERT_TRUE(engine->ScoreNodes({1}).ok());
  EXPECT_EQ(engine->score_calls(), 2);
  engine->Shutdown();
}

TEST(EngineStreamingTest, IngestRequiresStreamingMode) {
  AttributedGraph graph = StreamTestGraph(40, 41, 12);
  detectors::VbmConfig config;
  config.hidden_dim = 8;
  config.epochs = 2;
  auto detector = std::make_unique<detectors::Vbm>(config);
  ASSERT_TRUE(detector->Fit(graph).ok());
  serve::ScoringEngine engine(std::move(detector), graph,
                              serve::EngineConfig{});
  ASSERT_TRUE(engine.Start().ok());
  EventBatch batch;
  batch.events.push_back(GraphEvent::AddNode(
      std::vector<float>(graph.attribute_dim(), 0.f)));
  Status rejected = engine.Ingest(batch).status();
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition);
  EXPECT_FALSE(engine.Watchlist().ok());
  engine.Shutdown();
}

TEST(EngineStreamingTest, ConcurrentIngestAndScore) {
  AttributedGraph graph = StreamTestGraph(80, 51, 12);
  const int n = graph.num_nodes();
  serve::StreamingOptions stream_options;
  stream_options.compact_every = 64;  // Force compactions under load.
  std::unique_ptr<serve::ScoringEngine> engine =
      StreamingEngine(graph, stream_options, 2);

  constexpr int kIngestThreads = 2;
  constexpr int kScoreThreads = 3;
  constexpr int kBatches = 25;
  std::atomic<int> ingest_failures{0};
  std::vector<std::thread> pool;
  // Each ingest thread owns a disjoint node range, so concurrent batches
  // can never invalidate each other (same recipe as bench/stream_loadgen).
  const int chunk = n / kIngestThreads;
  for (int t = 0; t < kIngestThreads; ++t) {
    pool.emplace_back([&, t]() {
      Rng rng(100 + t);
      const int lo = t * chunk;
      const int span = t == kIngestThreads - 1 ? n - lo : chunk;
      std::vector<std::pair<int, int>> toggled;
      for (int b = 0; b < kBatches; ++b) {
        EventBatch batch;
        for (int e = 0; e < 8; ++e) {
          if (rng.Uniform() < 0.7 && span >= 2) {
            int u = lo + static_cast<int>(rng.Next() % span);
            int v = lo + static_cast<int>(rng.Next() % span);
            if (u == v) v = lo + (v - lo + 1) % span;
            const std::pair<int, int> key = {std::min(u, v), std::max(u, v)};
            const auto it =
                std::find(toggled.begin(), toggled.end(), key);
            const bool present =
                it != toggled.end() ? false : graph.HasEdge(u, v);
            if (it != toggled.end()) {
              // Already toggled once this run: skip instead of tracking
              // parity — validity is what matters here, not coverage.
              continue;
            }
            toggled.push_back(key);
            batch.events.push_back(present ? GraphEvent::RemoveEdge(u, v)
                                           : GraphEvent::AddEdge(u, v));
          } else {
            const int node = lo + static_cast<int>(rng.Next() % span);
            std::vector<float> row(graph.attribute_dim());
            for (float& x : row)
              x = static_cast<float>(rng.Uniform(-1.0, 1.0));
            batch.events.push_back(GraphEvent::UpdateAttributes(node, row));
          }
        }
        if (batch.events.empty()) continue;
        if (!engine->Ingest(batch).ok()) ingest_failures.fetch_add(1);
      }
    });
  }
  std::atomic<bool> done{false};
  for (int c = 0; c < kScoreThreads; ++c) {
    pool.emplace_back([&, c]() {
      int r = 0;
      while (r < 30 || !done.load()) {
        Result<serve::ScoreResult> scored =
            engine->ScoreNodes({(c * 13 + r) % n, (c * 13 + r + 1) % n});
        EXPECT_TRUE(scored.ok()) << scored.status().ToString();
        Result<std::vector<serve::WatchlistEntry>> top = engine->Watchlist(3);
        EXPECT_TRUE(top.ok());
        std::string reason;
        engine->Ready(&reason);
        ++r;
      }
    });
  }
  for (int t = 0; t < kIngestThreads; ++t) pool[t].join();
  done.store(true);
  for (size_t t = kIngestThreads; t < pool.size(); ++t) pool[t].join();
  EXPECT_EQ(ingest_failures.load(), 0);
  engine->Shutdown();
}

// ---------------------------------------------------------------------------
// Exact incremental refresh: after every published version, served scores
// equal a full Score() of that version bit for bit.

double CounterValue(const std::string& name) {
  Result<double> value = obs::MetricsRegistry::Global().ReadValue(name);
  return value.ok() ? value.value() : 0.0;
}

enum class ServedModel { kVgod, kVbmSelfLoop, kArm };

std::unique_ptr<detectors::OutlierDetector> FittedModel(
    ServedModel kind, const AttributedGraph& graph) {
  detectors::VbmConfig vbm;
  vbm.hidden_dim = 8;
  vbm.epochs = 3;
  detectors::ArmConfig arm;
  arm.hidden_dim = 8;
  arm.epochs = 3;
  std::unique_ptr<detectors::OutlierDetector> detector;
  switch (kind) {
    case ServedModel::kVgod: {
      detectors::VgodConfig config;
      config.vbm = vbm;
      config.arm = arm;
      detector = std::make_unique<detectors::Vgod>(config);
      break;
    }
    case ServedModel::kVbmSelfLoop:
      vbm.self_loop = true;
      detector = std::make_unique<detectors::Vbm>(vbm);
      break;
    case ServedModel::kArm:
      detector = std::make_unique<detectors::Arm>(arm);
      break;
  }
  VGOD_CHECK(detector->Fit(graph).ok());
  return detector;
}

/// A valid random event against `store`'s current state, biased towards
/// deleting edges: removes an existing edge, toggles a random pair,
/// replaces an attribute row, or (rarely) appends a node.
GraphEvent DeleteHeavyEvent(const DeltaGraphStore& store, Rng* rng) {
  const int n = store.num_nodes();
  const double kind = rng->Uniform();
  if (kind < 0.45) {
    const int u = static_cast<int>(rng->Next() % n);
    const std::vector<int32_t> neighbors = store.CurrentNeighbors(u);
    if (!neighbors.empty()) {
      return GraphEvent::RemoveEdge(u,
                                    neighbors[rng->Next() % neighbors.size()]);
    }
  }
  if (kind < 0.7) {
    const int u = static_cast<int>(rng->Next() % n);
    int v = static_cast<int>(rng->Next() % n);
    if (u == v) v = (v + 1) % n;
    return store.HasEdge(u, v) ? GraphEvent::RemoveEdge(u, v)
                               : GraphEvent::AddEdge(u, v);
  }
  if (kind < 0.995) {
    return GraphEvent::UpdateAttributes(static_cast<int>(rng->Next() % n),
                                        RandomRow(store.attribute_dim(), rng));
  }
  return GraphEvent::AddNode(RandomRow(store.attribute_dim(), rng));
}

/// A batch of `size` events, valid in sequence, applied to `mirror` too.
EventBatch RandomBatch(DeltaGraphStore* mirror, int size, Rng* rng) {
  EventBatch batch;
  for (int e = 0; e < size; ++e) {
    GraphEvent event = DeleteHeavyEvent(*mirror, rng);
    mirror->ApplyOne(event);
    batch.events.push_back(std::move(event));
  }
  return batch;
}

std::vector<int> AllNodes(int n) {
  std::vector<int> nodes(n);
  for (int i = 0; i < n; ++i) nodes[i] = i;
  return nodes;
}

/// Index of the first node whose served score (or component) differs from
/// `expected` in any bit, or -1.
int FirstMismatch(const serve::ScoreResult& served,
                  const detectors::DetectorOutput& expected) {
  if (served.score.size() != expected.score.size()) return 0;
  for (size_t k = 0; k < served.nodes.size(); ++k) {
    const int node = served.nodes[k];
    if (served.score[k] != expected.score[node]) return node;
    if (expected.has_components() &&
        (served.structural[k] != expected.structural_score[node] ||
         served.contextual[k] != expected.contextual_score[node])) {
      return node;
    }
  }
  return -1;
}

void RunExactRefresh(ServedModel kind, uint64_t seed) {
  AttributedGraph graph = StreamTestGraph(400, seed, 10);
  serve::EngineConfig engine_config;
  engine_config.num_threads = 2;
  serve::ScoringEngine engine(FittedModel(kind, graph), graph,
                              engine_config);
  serve::StreamingOptions options;
  options.compact_every = 200;
  ASSERT_TRUE(engine.EnableStreaming(options).ok());
  ASSERT_TRUE(engine.Start().ok());

  const double incremental_before = CounterValue("serve.refresh.incremental");
  const double full_before = CounterValue("serve.refresh.full");
  DeltaGraphStore mirror(graph);
  Rng rng(seed * 7 + 1);
  int events = 0;
  int versions = 0;
  for (int b = 0; events < 10000; ++b) {
    // Mostly small batches; every 40th is large enough to dirty most of
    // the graph, which must take the full fallback.
    const int size = b % 40 == 39 ? 150 : 1 + static_cast<int>(rng.Next() % 24);
    EventBatch batch = RandomBatch(&mirror, size, &rng);
    batch.compact = b % 17 == 16;
    events += size;
    Result<serve::IngestResult> applied = engine.Ingest(batch);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
    ++versions;

    const std::shared_ptr<const AttributedGraph> current =
        engine.CurrentGraph();
    Result<serve::ScoreResult> served =
        engine.ScoreNodes(AllNodes(current->num_nodes()));
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    const int mismatch =
        FirstMismatch(served.value(), engine.detector().Score(*current));
    ASSERT_EQ(mismatch, -1) << "version " << versions << " (batch of "
                            << size << " events) differs at node "
                            << mismatch;
  }
  // Every version refreshed once, through both paths, mostly the
  // incremental one.
  EXPECT_EQ(engine.score_calls(), versions);
  const double incremental =
      CounterValue("serve.refresh.incremental") - incremental_before;
  const double full = CounterValue("serve.refresh.full") - full_before;
  EXPECT_GT(full, 0);
  EXPECT_GT(incremental, 2 * full) << full << " full refreshes";
  engine.Shutdown();
}

TEST(ExactRefreshTest, VgodMatchesFullScoreAfterEveryVersion) {
  RunExactRefresh(ServedModel::kVgod, 61);
}

TEST(ExactRefreshTest, VbmSelfLoopMatchesFullScoreAfterEveryVersion) {
  RunExactRefresh(ServedModel::kVbmSelfLoop, 67);
}

TEST(ExactRefreshTest, ArmMatchesFullScoreAfterEveryVersion) {
  RunExactRefresh(ServedModel::kArm, 71);
}

// One ingest thread against two lookup threads on two scoring workers:
// refreshes of different versions patch private copies of the same
// retained state concurrently (TSan covers the copy and the install).
// A lookup bracketed by two reads of the same snapshot was answered from
// that version, so it must equal that snapshot's full Score() exactly.
TEST(ExactRefreshTest, ConcurrentIngestAndLookupsStayExact) {
  AttributedGraph graph = StreamTestGraph(100, 73, 10);
  serve::EngineConfig engine_config;
  engine_config.num_threads = 2;
  serve::ScoringEngine engine(FittedModel(ServedModel::kVgod, graph), graph,
                              engine_config);
  serve::StreamingOptions options;
  options.compact_every = 150;
  ASSERT_TRUE(engine.EnableStreaming(options).ok());
  ASSERT_TRUE(engine.Start().ok());

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> checked{0};
  std::thread ingest([&] {
    DeltaGraphStore mirror(graph);
    Rng rng(79);
    for (int b = 0; b < 300; ++b) {
      EventBatch batch =
          RandomBatch(&mirror, 1 + static_cast<int>(rng.Next() % 12), &rng);
      if (!engine.Ingest(batch).ok()) failures.fetch_add(1);
    }
    done.store(true);
  });
  std::vector<std::thread> lookups;
  for (int t = 0; t < 2; ++t) {
    lookups.emplace_back([&] {
      // Runs until the ingest thread is done and this thread has checked
      // a few lookups (the ones after the last publish always qualify).
      int exact = 0;
      while (!done.load() || exact < 3) {
        const std::shared_ptr<const AttributedGraph> before =
            engine.CurrentGraph();
        Result<serve::ScoreResult> served =
            engine.ScoreNodes(AllNodes(before->num_nodes()));
        if (!served.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (engine.CurrentGraph() != before) continue;
        if (FirstMismatch(served.value(), engine.detector().Score(*before)) !=
            -1) {
          failures.fetch_add(1);
        }
        checked.fetch_add(1);
        ++exact;
      }
    });
  }
  ingest.join();
  for (std::thread& lookup : lookups) lookup.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(checked.load(), 0);

  // Quiesced: the final version's served scores are exact.
  const std::shared_ptr<const AttributedGraph> final_graph =
      engine.CurrentGraph();
  Result<serve::ScoreResult> served =
      engine.ScoreNodes(AllNodes(final_graph->num_nodes()));
  ASSERT_TRUE(served.ok());
  EXPECT_EQ(FirstMismatch(served.value(),
                          engine.detector().Score(*final_graph)),
            -1);
  engine.Shutdown();
}

}  // namespace
}  // namespace vgod
