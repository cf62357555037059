// Tests for the serving subsystem: model bundles (round-trip and loud
// failure on corrupt/mismatched files), the score-once-per-graph-version
// scoring engine, registry thread-safety, and a concurrent-client smoke test
// against a live HTTP scoring server.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "core/rng.h"
#include "datasets/registry.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "serve/access_log.h"
#include "serve/forensics.h"
#include "datasets/synthetic.h"
#include "detectors/bundle.h"
#include "detectors/registry.h"
#include "detectors/simple.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"
#include "serve/engine.h"
#include "serve/http.h"
#include "serve/server.h"
#include "stream/events.h"

namespace vgod {
namespace {

using namespace ::vgod::detectors;  // NOLINT: test-local convenience.

AttributedGraph TestGraph(int n = 80, uint64_t seed = 1) {
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = n;
  spec.num_communities = 4;
  spec.avg_degree = 4.0;
  spec.attribute_dim = 12;
  spec.topic_dims_per_community = 3;
  Rng rng(seed);
  return datasets::GeneratePlantedPartition(spec, &rng);
}

VbmConfig TinyVbm() {
  VbmConfig config;
  config.hidden_dim = 8;
  config.epochs = 3;
  return config;
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

// ---------------------------------------------------------------------------
// Model bundles.

TEST(BundleTest, VbmRoundTripIsBitIdentical) {
  AttributedGraph graph = TestGraph();
  Vbm trained(TinyVbm());
  ASSERT_TRUE(trained.Fit(graph).ok());
  const DetectorOutput expected = trained.Score(graph);

  Result<ModelBundle> bundle = trained.ExportBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  EXPECT_EQ(bundle.value().detector, "VBM");

  const std::string path = TempPath("vbm_roundtrip.vgodb");
  ASSERT_TRUE(SaveBundle(bundle.value(), path).ok());
  Result<ModelBundle> loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  Result<std::unique_ptr<OutlierDetector>> restored =
      MakeDetectorFromBundle(loaded.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const DetectorOutput got = restored.value()->Score(graph);
  ASSERT_EQ(got.score.size(), expected.score.size());
  for (size_t i = 0; i < expected.score.size(); ++i) {
    EXPECT_EQ(got.score[i], expected.score[i]) << "node " << i;
  }
}

TEST(BundleTest, VgodRoundTripPreservesComponents) {
  AttributedGraph graph = TestGraph();
  VgodConfig config;
  config.vbm = TinyVbm();
  config.arm.hidden_dim = 8;
  config.arm.epochs = 3;
  Vgod trained(config);
  ASSERT_TRUE(trained.Fit(graph).ok());
  const DetectorOutput expected = trained.Score(graph);

  Result<ModelBundle> bundle = trained.ExportBundle();
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  const std::string path = TempPath("vgod_roundtrip.vgodb");
  ASSERT_TRUE(SaveBundle(bundle.value(), path).ok());
  Result<ModelBundle> loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  Result<std::unique_ptr<OutlierDetector>> restored =
      MakeDetectorFromBundle(loaded.value());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();

  const DetectorOutput got = restored.value()->Score(graph);
  ASSERT_TRUE(got.has_components());
  for (size_t i = 0; i < expected.score.size(); ++i) {
    EXPECT_EQ(got.score[i], expected.score[i]);
    EXPECT_EQ(got.structural_score[i], expected.structural_score[i]);
    EXPECT_EQ(got.contextual_score[i], expected.contextual_score[i]);
  }
}

TEST(BundleTest, LoadRejectsBadMagic) {
  const std::string path = TempPath("bad_magic.vgodb");
  // The second input is the header of the retired plain-text parameter
  // dump: bundles are the only model format, so it fails like any other.
  for (const char* contents :
       {"definitely not a bundle", "vgod-params 1\n2 2 0 0 0 0\n"}) {
    std::ofstream(path) << contents;
    Result<ModelBundle> loaded = LoadBundle(path);
    ASSERT_FALSE(loaded.ok()) << contents;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("bad magic"), std::string::npos)
        << loaded.status().message();
  }
}

TEST(BundleTest, ExportBeforeFitFails) {
  Vbm vbm(TinyVbm());
  EXPECT_EQ(vbm.ExportBundle().status().code(),
            StatusCode::kFailedPrecondition);
  Arm arm;
  EXPECT_EQ(arm.ExportBundle().status().code(),
            StatusCode::kFailedPrecondition);
  Vgod vgod;
  EXPECT_EQ(vgod.ExportBundle().status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(BundleTest, LoadRejectsCorruptPayload) {
  AttributedGraph graph = TestGraph();
  Vbm trained(TinyVbm());
  ASSERT_TRUE(trained.Fit(graph).ok());
  Result<ModelBundle> bundle = trained.ExportBundle();
  ASSERT_TRUE(bundle.ok());
  const std::string path = TempPath("corrupt.vgodb");
  ASSERT_TRUE(SaveBundle(bundle.value(), path).ok());

  // Flip one byte in the middle of the parameter payload; the checksum
  // must catch it.
  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  ASSERT_GT(bytes.size(), 64u);
  bytes[bytes.size() / 2] ^= 0x5a;
  std::ofstream(path, std::ios::binary) << bytes;

  Result<ModelBundle> loaded = LoadBundle(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(BundleTest, LoadRejectsTruncatedFile) {
  AttributedGraph graph = TestGraph();
  Vbm trained(TinyVbm());
  ASSERT_TRUE(trained.Fit(graph).ok());
  Result<ModelBundle> bundle = trained.ExportBundle();
  ASSERT_TRUE(bundle.ok());
  const std::string path = TempPath("truncated.vgodb");
  ASSERT_TRUE(SaveBundle(bundle.value(), path).ok());

  std::ifstream in(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  in.close();
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() * 2 / 3);

  Result<ModelBundle> loaded = LoadBundle(path);
  EXPECT_FALSE(loaded.ok());
}

TEST(BundleTest, RestoreRejectsShapeMismatch) {
  AttributedGraph graph = TestGraph();
  Vbm trained(TinyVbm());
  ASSERT_TRUE(trained.Fit(graph).ok());
  Result<ModelBundle> bundle = trained.ExportBundle();
  ASSERT_TRUE(bundle.ok());

  // Swap in a parameter tensor with the wrong shape.
  ModelBundle tampered = bundle.value();
  ASSERT_FALSE(tampered.params.empty());
  tampered.params[0] = Tensor::Zeros(3, 3);
  Result<std::unique_ptr<OutlierDetector>> restored =
      MakeDetectorFromBundle(tampered);
  EXPECT_FALSE(restored.ok());
}

TEST(BundleTest, RestoreRejectsWrongDetectorName) {
  AttributedGraph graph = TestGraph();
  Vbm trained(TinyVbm());
  ASSERT_TRUE(trained.Fit(graph).ok());
  Result<ModelBundle> bundle = trained.ExportBundle();
  ASSERT_TRUE(bundle.ok());

  Vgod other;
  EXPECT_FALSE(other.RestoreFromBundle(bundle.value()).ok());

  // A detector's own bundle with its name cleared is refused too: every
  // bundle must name the detector it restores.
  ArmConfig arm_config;
  arm_config.hidden_dim = 8;
  arm_config.epochs = 3;
  Arm arm_trained(arm_config);
  ASSERT_TRUE(arm_trained.Fit(graph).ok());
  DegNorm degnorm_trained;
  ASSERT_TRUE(degnorm_trained.Fit(graph).ok());
  Vbm vbm(TinyVbm());
  Arm arm(arm_config);
  DegNorm degnorm;
  const std::pair<const OutlierDetector*, OutlierDetector*> pairs[] = {
      {&trained, &vbm}, {&arm_trained, &arm}, {&degnorm_trained, &degnorm}};
  for (const auto& [source, target] : pairs) {
    Result<ModelBundle> own = source->ExportBundle();
    ASSERT_TRUE(own.ok()) << own.status().ToString();
    ModelBundle unnamed = own.value();
    unnamed.detector.clear();
    EXPECT_EQ(target->RestoreFromBundle(unnamed).code(),
              StatusCode::kInvalidArgument)
        << target->name();
  }
}

// ---------------------------------------------------------------------------
// Scoring engine.

using serve::ScoringEngine;
using ScoreFuture = std::future<Result<serve::ScoreResult>>;

/// A completion callback that fulfils `*future`: lets a test hold an
/// *Async submission in flight while it acts.
ScoringEngine::ScoreCallback FulfilFuture(ScoreFuture* future) {
  auto promise =
      std::make_shared<std::promise<Result<serve::ScoreResult>>>();
  *future = promise->get_future();
  return [promise](Result<serve::ScoreResult> result) {
    promise->set_value(std::move(result));
  };
}

ScoreFuture SubmitNodes(ScoringEngine& engine, std::vector<int> nodes) {
  ScoreFuture future;
  engine.SubmitNodesAsync(std::move(nodes), 0, FulfilFuture(&future));
  return future;
}

ScoreFuture SubmitGraph(ScoringEngine& engine, AttributedGraph graph) {
  ScoreFuture future;
  engine.SubmitGraphAsync(std::move(graph), 0, FulfilFuture(&future));
  return future;
}

std::unique_ptr<ScoringEngine> MakeDegNormEngine(const AttributedGraph& graph,
                                                 serve::EngineConfig config) {
  auto detector = std::make_unique<DegNorm>();
  VGOD_CHECK(detector->Fit(graph).ok());
  return std::make_unique<ScoringEngine>(std::move(detector), graph, config);
}

TEST(ScoringEngineTest, ServedScoresMatchInProcessScore) {
  AttributedGraph graph = TestGraph();
  DegNorm reference;
  ASSERT_TRUE(reference.Fit(graph).ok());
  const DetectorOutput expected = reference.Score(graph);

  serve::EngineConfig config;
  config.num_threads = 2;
  auto engine = MakeDegNormEngine(graph, config);
  ASSERT_TRUE(engine->Start().ok());
  Result<serve::ScoreResult> result = engine->ScoreNodes({0, 5, 17});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().score[0], expected.score[0]);
  EXPECT_EQ(result.value().score[1], expected.score[5]);
  EXPECT_EQ(result.value().score[2], expected.score[17]);
  engine->Shutdown();
}

TEST(ScoringEngineTest, ConcurrentNodeRequestsShareOneScoreCall) {
  AttributedGraph graph = TestGraph();
  DegNorm reference;
  ASSERT_TRUE(reference.Fit(graph).ok());
  const DetectorOutput expected = reference.Score(graph);

  serve::EngineConfig config;
  config.num_threads = 2;
  auto engine = MakeDegNormEngine(graph, config);
  ASSERT_TRUE(engine->Start().ok());

  constexpr int kRequests = 16;
  std::vector<Result<serve::ScoreResult>> replies(
      kRequests, Status::Internal("not answered"));
  std::atomic<bool> go{false};
  std::vector<std::thread> clients;
  for (int i = 0; i < kRequests; ++i) {
    clients.emplace_back([&, i] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      replies[i] = engine->ScoreNodes({i, (i * 7 + 3) % graph.num_nodes()});
    });
  }
  go.store(true, std::memory_order_release);
  for (std::thread& client : clients) client.join();

  // The static graph is one version: a single Score() answers everyone,
  // whether a request waited on the refresh or hit the cache after it.
  EXPECT_EQ(engine->score_calls(), 1);
  for (int i = 0; i < kRequests; ++i) {
    ASSERT_TRUE(replies[i].ok()) << replies[i].status().ToString();
    const serve::ScoreResult& reply = replies[i].value();
    ASSERT_EQ(reply.nodes.size(), 2u);
    for (size_t k = 0; k < reply.nodes.size(); ++k) {
      EXPECT_EQ(reply.score[k], expected.score[reply.nodes[k]]);
    }
  }
  engine->Shutdown();
}

TEST(ScoringEngineTest, RejectsInvalidNodeIdsWithoutPoisoningBatch) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  ASSERT_TRUE(engine->Start().ok());

  Result<serve::ScoreResult> bad = engine->ScoreNodes({-1});
  EXPECT_FALSE(bad.ok());
  Result<serve::ScoreResult> too_big =
      engine->ScoreNodes({graph.num_nodes()});
  EXPECT_FALSE(too_big.ok());
  Result<serve::ScoreResult> good = engine->ScoreNodes({0});
  EXPECT_TRUE(good.ok());
  engine->Shutdown();
}

TEST(ScoringEngineTest, SubgraphScoringMatchesAndValidatesSchema) {
  AttributedGraph graph = TestGraph();
  DegNorm reference;
  ASSERT_TRUE(reference.Fit(graph).ok());
  const DetectorOutput expected = reference.Score(graph);

  auto engine = MakeDegNormEngine(graph, {});
  ASSERT_TRUE(engine->Start().ok());

  Result<serve::ScoreResult> result = engine->ScoreGraph(graph);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result.value().score.size(), expected.score.size());
  for (size_t i = 0; i < expected.score.size(); ++i) {
    EXPECT_EQ(result.value().score[i], expected.score[i]);
  }

  // A subgraph with a different attribute schema must be rejected, not
  // crash a kernel assertion.
  AttributedGraph mismatched = TestGraph(40, 9);
  mismatched.SetAttributes(Tensor::Zeros(40, 5));
  Result<serve::ScoreResult> rejected =
      engine->ScoreGraph(std::move(mismatched));
  EXPECT_FALSE(rejected.ok());
  engine->Shutdown();
}

// A detector whose Score() blocks until the test releases it — used to
// deterministically fill the bounded queue. With `blocked_edges` set, only
// graphs with that many directed edges block. Every node scores the
// graph's edge count, so replies tell graph versions apart.
class BlockingDetector : public OutlierDetector {
 public:
  explicit BlockingDetector(int64_t blocked_edges = -1)
      : blocked_edges_(blocked_edges) {}
  std::string name() const override { return "Blocking"; }
  Status Fit(const AttributedGraph&) override { return Status::Ok(); }

  DetectorOutput Score(const AttributedGraph& graph) const override {
    if (blocked_edges_ < 0 || graph.num_directed_edges() == blocked_edges_) {
      std::unique_lock<std::mutex> lock(mu_);
      ++entered_;
      entered_cv_.notify_all();
      release_cv_.wait(lock, [this] { return tokens_ > 0; });
      --tokens_;
    }
    DetectorOutput out;
    out.score.assign(graph.num_nodes(),
                     static_cast<double>(graph.num_directed_edges()));
    return out;
  }

  void WaitForScoreEntry(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    entered_cv_.wait(lock, [this, n] { return entered_ >= n; });
  }

  void Release(int n) const {
    {
      std::lock_guard<std::mutex> lock(mu_);
      tokens_ += n;
    }
    release_cv_.notify_all();
  }

 private:
  const int64_t blocked_edges_;
  mutable std::mutex mu_;
  mutable std::condition_variable entered_cv_;
  mutable std::condition_variable release_cv_;
  mutable int entered_ = 0;
  mutable int tokens_ = 0;
};

TEST(ScoringEngineTest, StageTimingThreadsThroughRequests) {
  AttributedGraph graph = TestGraph();
  serve::EngineConfig config;
  config.num_threads = 1;
  auto engine = MakeDegNormEngine(graph, config);
  ASSERT_TRUE(engine->Start().ok());

  // Caller-supplied id is echoed back through the timing record. The
  // first node request misses the score cache and waits for the refresh.
  Result<serve::ScoreResult> tagged = engine->ScoreNodes({0, 1}, 12345);
  ASSERT_TRUE(tagged.ok()) << tagged.status().ToString();
  EXPECT_EQ(tagged.value().timing.request_id, 12345u);
  EXPECT_GE(tagged.value().timing.queue_wait_seconds, 0.0);
  EXPECT_GT(tagged.value().timing.score_seconds, 0.0);

  // With no caller id the engine assigns a nonzero one. Same graph
  // version, so this is a cache hit: no queue, no scoring wait.
  Result<serve::ScoreResult> assigned = engine->ScoreNodes({2});
  ASSERT_TRUE(assigned.ok());
  EXPECT_GT(assigned.value().timing.request_id, 0u);
  EXPECT_EQ(assigned.value().timing.queue_wait_seconds, 0.0);
  EXPECT_EQ(assigned.value().timing.score_seconds, 0.0);
  EXPECT_EQ(engine->score_calls(), 1);

  // Subgraph requests always run their own Score() call.
  Result<serve::ScoreResult> subgraph = engine->ScoreGraph(graph, 777);
  ASSERT_TRUE(subgraph.ok());
  EXPECT_EQ(subgraph.value().timing.request_id, 777u);
  EXPECT_GT(subgraph.value().timing.score_seconds, 0.0);
  EXPECT_EQ(engine->score_calls(), 2);

  // The stage histograms saw every request.
  obs::Histogram* queue_wait = obs::MetricsRegistry::Global().GetHistogram(
      "serve.stage.queue_wait.seconds", obs::DefaultLatencyBounds());
  obs::Histogram* score = obs::MetricsRegistry::Global().GetHistogram(
      "serve.stage.score.seconds", obs::DefaultLatencyBounds());
  EXPECT_GE(queue_wait->Count(), 3);
  EXPECT_GE(score->Count(), 3);
  engine->Shutdown();

  serve::EngineStats stats = engine->stats();
  EXPECT_GE(stats.requests_served, 3);
  EXPECT_GE(stats.batches_flushed, 1);
  EXPECT_EQ(stats.shed, 0);
}

TEST(ScoringEngineTest, FullQueueShedsLoad) {
  AttributedGraph graph = TestGraph();
  auto blocking = std::make_unique<BlockingDetector>();
  const BlockingDetector* control = blocking.get();
  serve::EngineConfig config;
  config.num_threads = 1;
  config.max_queue = 1;
  ScoringEngine engine(std::move(blocking), graph, config);
  ASSERT_TRUE(engine.Start().ok());

  // The first request misses the cache and waits on a refresh that blocks
  // inside Score(); as a waiter it holds the one backlog slot...
  ScoreFuture first = SubmitNodes(engine, {0});
  control->WaitForScoreEntry(1);
  // ...so the next lookup and a subgraph request are both shed, fast.
  Result<serve::ScoreResult> shed_nodes = SubmitNodes(engine, {1}).get();
  EXPECT_EQ(shed_nodes.status().code(), StatusCode::kOutOfRange);
  Result<serve::ScoreResult> shed_graph = SubmitGraph(engine, graph).get();
  EXPECT_EQ(shed_graph.status().code(), StatusCode::kOutOfRange);
  EXPECT_EQ(engine.stats().shed, 2);

  control->Release(1);
  EXPECT_TRUE(first.get().ok());
  // The refresh answered its waiter and freed the slot; the version is now
  // cached, so lookups are answered without scoring again.
  EXPECT_TRUE(engine.ScoreNodes({1}).ok());
  EXPECT_EQ(engine.score_calls(), 1);
  engine.Shutdown();
}

TEST(ScoringEngineTest, LookupAfterIngestNeverWaitsOnAnOlderRefresh) {
  AttributedGraph graph = TestGraph();
  const double boot_edges = static_cast<double>(graph.num_directed_edges());
  auto blocking =
      std::make_unique<BlockingDetector>(graph.num_directed_edges());
  const BlockingDetector* control = blocking.get();
  serve::EngineConfig config;
  config.num_threads = 2;
  ScoringEngine engine(std::move(blocking), graph, config);
  ASSERT_TRUE(engine.EnableStreaming().ok());
  ASSERT_TRUE(engine.Start().ok());

  // A refresh of the boot graph is blocked inside Score()...
  ScoreFuture stale = SubmitNodes(engine, {0});
  control->WaitForScoreEntry(1);
  // ...when an ingest publishes version 1.
  int absent = 1;
  while (graph.HasEdge(0, absent)) ++absent;
  stream::EventBatch batch;
  batch.events.push_back(stream::GraphEvent::AddEdge(0, absent));
  ASSERT_TRUE(engine.Ingest(batch).ok());
  const double new_edges =
      static_cast<double>(engine.CurrentGraph()->num_directed_edges());
  ASSERT_NE(new_edges, boot_edges);

  // A lookup sent after Ingest() returned sees the batch: it gets its own
  // refresh instead of waiting on the boot graph's.
  Result<serve::ScoreResult> fresh = engine.ScoreNodes({0});
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  EXPECT_EQ(fresh.value().score[0], new_edges);

  // The older refresh finishes last: it answers its own waiter but does
  // not replace the newer cached scores.
  control->Release(1);
  Result<serve::ScoreResult> stale_reply = stale.get();
  ASSERT_TRUE(stale_reply.ok());
  EXPECT_EQ(stale_reply.value().score[0], boot_edges);
  Result<serve::ScoreResult> cached = engine.ScoreNodes({1});
  ASSERT_TRUE(cached.ok());
  EXPECT_EQ(cached.value().score[0], new_edges);
  EXPECT_EQ(engine.score_calls(), 2);
  engine.Shutdown();
}

TEST(ScoringEngineTest, ShutdownDrainsInFlightWork) {
  AttributedGraph graph = TestGraph();
  auto blocking = std::make_unique<BlockingDetector>();
  const BlockingDetector* control = blocking.get();
  serve::EngineConfig config;
  config.num_threads = 1;
  ScoringEngine engine(std::move(blocking), graph, config);
  ASSERT_TRUE(engine.Start().ok());

  // Node requests wait on one refresh blocked inside Score(); subgraph
  // requests queue behind it.
  std::vector<ScoreFuture> futures;
  futures.push_back(SubmitNodes(engine, {0}));
  control->WaitForScoreEntry(1);
  for (int i = 1; i < 8; ++i) futures.push_back(SubmitNodes(engine, {i}));
  for (int i = 0; i < 2; ++i) futures.push_back(SubmitGraph(engine, graph));

  std::thread stopper([&engine] { engine.Shutdown(); });
  // Shutdown closes admission before it drains.
  std::string reason;
  while (engine.Ready(&reason)) std::this_thread::yield();
  EXPECT_FALSE(engine.ScoreNodes({0}).ok());
  control->Release(3);  // The refresh plus both subgraphs.
  stopper.join();

  // Every admitted request was answered by running it, not abandoned.
  for (auto& f : futures) {
    ASSERT_EQ(f.wait_for(std::chrono::seconds(0)),
              std::future_status::ready);
    EXPECT_TRUE(f.get().ok());
  }
  EXPECT_EQ(engine.score_calls(), 3);
}

// ---------------------------------------------------------------------------
// Registry thread-safety.

TEST(RegistryThreadSafetyTest, ConcurrentRegisterAndMake) {
  constexpr int kThreads = 8;
  std::vector<std::thread> pool;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([t, &failures]() {
      const std::string det_name = "test-det-" + std::to_string(t);
      RegisterDetector(det_name, [](const DetectorOptions&) {
        return Result<std::unique_ptr<OutlierDetector>>(
            std::make_unique<DegNorm>());
      });
      datasets::RegisterDataset(
          "test-ds-" + std::to_string(t),
          [](double, uint64_t) {
            return Result<datasets::Dataset>(
                Status::FailedPrecondition("test dataset"));
          });
      for (int i = 0; i < 20; ++i) {
        Result<std::unique_ptr<OutlierDetector>> made =
            MakeDetector(i % 2 == 0 ? "DegNorm" : det_name);
        if (!made.ok()) failures.fetch_add(1);
        if (RegisteredDetectorNames().empty()) failures.fetch_add(1);
        if (datasets::RegisteredDatasetNames().empty()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(failures.load(), 0);

  const std::vector<std::string> names = RegisteredDetectorNames();
  for (int t = 0; t < kThreads; ++t) {
    const std::string expected = "test-det-" + std::to_string(t);
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end());
  }
}

// ---------------------------------------------------------------------------
// Live HTTP server smoke test with concurrent clients.

// Minimal loopback HTTP/1.1 client for the smoke test.
Result<std::pair<int, std::string>> HttpRoundTrip(int port,
                                                  const std::string& method,
                                                  const std::string& target,
                                                  const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect() failed");
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1\r\nConnection: close\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t space = response.find(' ');
  if (space == std::string::npos) return Status::IoError("malformed response");
  const int status = std::atoi(response.c_str() + space + 1);
  const size_t header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos) {
    return Status::IoError("missing header terminator");
  }
  return std::make_pair(status, response.substr(header_end + 4));
}

// Sends `request` verbatim (no header fix-ups) and returns the status
// code — for exercising the transport with malformed headers that
// HttpRoundTrip could never produce.
Result<int> RawHttpStatus(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect() failed");
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  const size_t space = response.find(' ');
  if (space == std::string::npos) return Status::IoError("malformed response");
  return std::atoi(response.c_str() + space + 1);
}

std::string RawRequestWithContentLength(const std::string& length_token) {
  return "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n"
         "Content-Length: " +
         length_token + "\r\n\r\n";
}

TEST(ScoringServerTest, MalformedContentLengthGetsCleanHttpErrors) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // Trailing garbage after the digits: the pre-fix parser (atoi-style)
  // accepted "123abc" as 123; now the full token must validate.
  Result<int> trailing =
      RawHttpStatus(port, RawRequestWithContentLength("123abc"));
  ASSERT_TRUE(trailing.ok()) << trailing.status().ToString();
  EXPECT_EQ(trailing.value(), 400);

  Result<int> negative =
      RawHttpStatus(port, RawRequestWithContentLength("-5"));
  ASSERT_TRUE(negative.ok());
  EXPECT_EQ(negative.value(), 400);

  Result<int> empty = RawHttpStatus(port, RawRequestWithContentLength(""));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value(), 400);

  // Well-formed but absurd lengths are "too large", not "bad request" —
  // including values that overflow the parser's integer type.
  Result<int> oversized =
      RawHttpStatus(port, RawRequestWithContentLength("99999999999"));
  ASSERT_TRUE(oversized.ok());
  EXPECT_EQ(oversized.value(), 413);

  Result<int> overflow = RawHttpStatus(
      port, RawRequestWithContentLength("99999999999999999999999999"));
  ASSERT_TRUE(overflow.ok());
  EXPECT_EQ(overflow.value(), 413);

  // None of the rejections may take the server down.
  Result<std::pair<int, std::string>> health =
      HttpRoundTrip(port, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().first, 200);

  server.Stop();
}

// Sends `request` verbatim and returns every byte the server wrote until
// it closed the connection — for asserting on multi-response exchanges
// (pipelining) and response headers.
Result<std::string> RawHttpExchange(int port, const std::string& request) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect() failed");
  }
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ScoringServerTest, PipelinedRequestsAnswerInOrder) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  // Two requests with distinguishable bodies in ONE TCP segment; the
  // second asks for close so EOF delimits the exchange. The transport
  // must answer both, in order, on the one connection.
  const std::string pipelined =
      "GET /healthz/ready HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 0\r\n\r\n"
      "GET /healthz/live HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 0\r\nConnection: close\r\n\r\n";
  Result<std::string> exchange = RawHttpExchange(server.port(), pipelined);
  ASSERT_TRUE(exchange.ok()) << exchange.status().ToString();
  const std::string& wire = exchange.value();

  const size_t first = wire.find("HTTP/1.1 200");
  ASSERT_NE(first, std::string::npos) << wire;
  const size_t second = wire.find("HTTP/1.1 200", first + 1);
  ASSERT_NE(second, std::string::npos) << wire;
  const size_t ready = wire.find("\"status\":\"ready\"");
  const size_t live = wire.find("\"status\":\"live\"");
  ASSERT_NE(ready, std::string::npos) << wire;
  ASSERT_NE(live, std::string::npos) << wire;
  EXPECT_LT(ready, live) << "pipelined responses out of order:\n" << wire;
  // First response keeps the connection, the close-flagged one ends it.
  EXPECT_NE(wire.find("connection: keep-alive"), std::string::npos) << wire;
  EXPECT_NE(wire.find("connection: close"), std::string::npos) << wire;

  server.Stop();
}

TEST(ScoringServerTest, Http10DefaultsToConnectionClose) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  // No connection header at all: an HTTP/1.0 client must get close (and
  // EOF — RawHttpExchange returning at all proves the server closed).
  Result<std::string> exchange = RawHttpExchange(
      server.port(),
      "GET /healthz/live HTTP/1.0\r\nHost: 127.0.0.1\r\n\r\n");
  ASSERT_TRUE(exchange.ok()) << exchange.status().ToString();
  EXPECT_NE(exchange.value().find("HTTP/1.1 200"), std::string::npos);
  EXPECT_NE(exchange.value().find("connection: close"), std::string::npos)
      << exchange.value();

  // An unknown protocol version is rejected outright.
  Result<int> bad_version = RawHttpStatus(
      server.port(), "GET /healthz HTTP/2.0\r\nHost: 127.0.0.1\r\n\r\n");
  ASSERT_TRUE(bad_version.ok());
  EXPECT_EQ(bad_version.value(), 400);

  server.Stop();
}

TEST(ScoringServerTest, DuplicateContentLengthRejected) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  // Two Content-Length headers — even agreeing ones — are a smuggling
  // vector under pipelining (parsers that disagree on which wins
  // disagree on where the next request starts) and must be rejected.
  Result<int> conflicting = RawHttpStatus(
      server.port(),
      "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 2\r\nContent-Length: 7\r\n\r\n{}");
  ASSERT_TRUE(conflicting.ok());
  EXPECT_EQ(conflicting.value(), 400);

  Result<int> duplicate = RawHttpStatus(
      server.port(),
      "POST /score HTTP/1.1\r\nHost: 127.0.0.1\r\n"
      "Content-Length: 2\r\nContent-Length: 2\r\n\r\n{}");
  ASSERT_TRUE(duplicate.ok());
  EXPECT_EQ(duplicate.value(), 400);

  server.Stop();
}

TEST(ScoringServerTest, OversizedHeadersGet431) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  // A 100KB header block blows the 64KB cap: 431 (RFC 6585), not 413 —
  // the oversized thing is the header section, not a payload.
  std::string request = "GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n";
  request += "X-Padding: " + std::string(100 * 1024, 'a') + "\r\n\r\n";
  Result<int> status = RawHttpStatus(server.port(), request);
  ASSERT_TRUE(status.ok()) << status.status().ToString();
  EXPECT_EQ(status.value(), 431);

  server.Stop();
}

TEST(QueryParamTest, PercentDecodesValues) {
  Result<std::string> plain = serve::QueryParam("format=json", "format");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain.value(), "json");

  Result<std::string> encoded =
      serve::QueryParam("format=%6a%73%6F%6e", "format");
  ASSERT_TRUE(encoded.ok());
  EXPECT_EQ(encoded.value(), "json");

  Result<std::string> plus = serve::QueryParam("q=a+b", "q");
  ASSERT_TRUE(plus.ok());
  EXPECT_EQ(plus.value(), "a b");

  Result<std::string> absent = serve::QueryParam("a=1&b=2", "c");
  ASSERT_TRUE(absent.ok());
  EXPECT_TRUE(absent.value().empty());

  // Malformed escapes are errors, not passed through raw.
  EXPECT_FALSE(serve::QueryParam("q=%zz", "q").ok());
  EXPECT_FALSE(serve::QueryParam("q=%a", "q").ok());
  EXPECT_FALSE(serve::QueryParam("q=%", "q").ok());
}

TEST(ScoringServerTest, PercentEncodedQueryParamsReachEndpoints) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());

  // "%6a%73%6f%6e" decodes to "json".
  Result<std::pair<int, std::string>> decoded =
      HttpRoundTrip(server.port(), "GET", "/metrics?format=%6a%73%6f%6e", "");
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded.value().first, 200);

  Result<std::pair<int, std::string>> malformed =
      HttpRoundTrip(server.port(), "GET", "/metrics?format=%zz", "");
  ASSERT_TRUE(malformed.ok());
  EXPECT_EQ(malformed.value().first, 400);

  server.Stop();
}

// Like HttpRoundTrip but returns the raw response (status line + headers
// + body) so tests can assert on headers like content-type.
Result<std::string> HttpRoundTripRaw(int port, const std::string& method,
                                     const std::string& target,
                                     const std::string& body) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::IoError("socket() failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return Status::IoError("connect() failed");
  }
  std::string request = method + " " + target + " HTTP/1.1\r\n";
  request += "Host: 127.0.0.1\r\nConnection: close\r\n";
  request += "Content-Length: " + std::to_string(body.size()) + "\r\n\r\n";
  request += body;
  size_t sent = 0;
  while (sent < request.size()) {
    const ssize_t n =
        ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) {
      ::close(fd);
      return Status::IoError("send() failed");
    }
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buffer[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, buffer, sizeof(buffer), 0);
    if (n <= 0) break;
    response.append(buffer, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

// ---------------------------------------------------------------------------
// Access log + slow-request forensics.

TEST(AccessLogTest, RequestIdsAreMonotonicAndNonZero) {
  uint64_t prev = serve::NextRequestId();
  EXPECT_GT(prev, 0u);
  for (int i = 0; i < 100; ++i) {
    const uint64_t next = serve::NextRequestId();
    EXPECT_GT(next, prev);
    prev = next;
  }
}

TEST(AccessLogTest, RecordJsonRoundTrips) {
  serve::AccessRecord record;
  record.request_id = 9;
  record.path = "/score";
  record.status = 503;
  record.num_nodes = 4;
  record.shed = true;
  record.error_class = "unavailable";
  record.parse_us = 10;
  record.queue_wait_us = 20;
  record.score_us = 40;
  record.serialize_us = 50;
  record.total_us = 160;

  Result<obs::JsonValue> parsed =
      obs::ParseJson(serve::AccessRecordToJson(record));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& root = parsed.value();
  EXPECT_EQ(root.at("id").number(), 9.0);
  EXPECT_EQ(root.at("path").string_value(), "/score");
  EXPECT_EQ(root.at("status").number(), 503.0);
  EXPECT_EQ(root.at("nodes").number(), 4.0);
  EXPECT_TRUE(root.at("shed").boolean());
  EXPECT_EQ(root.at("error_class").string_value(), "unavailable");
  EXPECT_EQ(root.at("queue_wait_us").number(), 20.0);
  EXPECT_EQ(root.at("total_us").number(), 160.0);
}

TEST(AccessLogTest, WritesOneParsableJsonLinePerRecord) {
  const std::string path = TempPath("access_log_test.jsonl");
  std::remove(path.c_str());
  Result<std::unique_ptr<serve::AccessLog>> log = serve::AccessLog::Open(path);
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  for (int i = 1; i <= 3; ++i) {
    serve::AccessRecord record;
    record.request_id = static_cast<uint64_t>(i);
    record.path = "/score";
    record.total_us = i * 100;
    log.value()->Record(record);
  }
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    Result<obs::JsonValue> parsed = obs::ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << "line " << lines << ": " << line;
    EXPECT_EQ(parsed.value().at("id").number(), static_cast<double>(lines));
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(AccessLogTest, OpenRejectsUnwritablePath) {
  EXPECT_FALSE(serve::AccessLog::Open("/nonexistent-dir/access.log").ok());
}

TEST(SlowRequestTrackerTest, KeepsKSlowestSorted) {
  serve::SlowRequestTracker tracker(3);
  for (int total : {50, 10, 90, 30, 70, 20}) {
    serve::AccessRecord record;
    record.request_id = static_cast<uint64_t>(total);
    record.total_us = total;
    tracker.Record(record);
  }
  const std::vector<serve::AccessRecord> slowest = tracker.Snapshot();
  ASSERT_EQ(slowest.size(), 3u);
  EXPECT_EQ(slowest[0].total_us, 90);
  EXPECT_EQ(slowest[1].total_us, 70);
  EXPECT_EQ(slowest[2].total_us, 50);

  Result<obs::JsonValue> parsed = obs::ParseJson(tracker.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().at("capacity").number(), 3.0);
  EXPECT_EQ(parsed.value().at("count").number(), 3.0);
  EXPECT_EQ(parsed.value().at("slowest").array().size(), 3u);
}

// ---------------------------------------------------------------------------
// Request-scoped observability against a live server.

TEST(ScoringServerTest, MetricsExpositionFormatsAgree) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  // Drive a couple of scoring requests so the stage histograms fill.
  for (int i = 0; i < 3; ++i) {
    Result<std::pair<int, std::string>> reply =
        HttpRoundTrip(port, "POST", "/score", "{\"nodes\":[1,2]}");
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().first, 200);
    // Every /score response carries its request id.
    EXPECT_NE(reply.value().second.find("\"request_id\":"),
              std::string::npos);
  }

  // JSON scrape, then Prometheus scrape. serve.requests.total only moves
  // on /score, so the two scrapes must agree on it.
  Result<std::pair<int, std::string>> json_reply =
      HttpRoundTrip(port, "GET", "/metrics", "");
  ASSERT_TRUE(json_reply.ok());
  ASSERT_EQ(json_reply.value().first, 200);
  Result<obs::JsonValue> json = obs::ParseJson(json_reply.value().second);
  ASSERT_TRUE(json.ok()) << json.status().ToString();
  const double requests_total =
      json.value().at("counters").at("serve.requests.total").number();
  EXPECT_GE(requests_total, 3.0);

  Result<std::string> prom_raw =
      HttpRoundTripRaw(port, "GET", "/metrics?format=prometheus", "");
  ASSERT_TRUE(prom_raw.ok());
  const std::string& prom = prom_raw.value();
  EXPECT_NE(prom.find(" 200 "), std::string::npos);
  // Satellite: content types come from one construction site each.
  EXPECT_NE(prom.find("content-type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(prom.find("# TYPE serve_requests_total counter"),
            std::string::npos);
  std::string expected_line = "\nserve_requests_total ";
  {
    std::string count;
    obs::AppendJsonNumber(&count, requests_total);
    expected_line += count + "\n";
  }
  EXPECT_NE(prom.find(expected_line), std::string::npos) << prom;
  // Stage histograms appear in exposition form.
  EXPECT_NE(prom.find("serve_stage_score_seconds_bucket{le=\"+Inf\"}"),
            std::string::npos);

  Result<std::string> json_raw = HttpRoundTripRaw(port, "GET", "/metrics", "");
  ASSERT_TRUE(json_raw.ok());
  EXPECT_NE(json_raw.value().find("content-type: application/json"),
            std::string::npos);

  Result<std::pair<int, std::string>> bad_format =
      HttpRoundTrip(port, "GET", "/metrics?format=xml", "");
  ASSERT_TRUE(bad_format.ok());
  EXPECT_EQ(bad_format.value().first, 400);

  server.Stop();
}

TEST(ScoringServerTest, DebugSlowReturnsStageBreakdowns) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0, /*slow_ring=*/4);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();

  for (int i = 0; i < 6; ++i) {
    Result<std::pair<int, std::string>> reply =
        HttpRoundTrip(port, "POST", "/score", "{\"nodes\":[0]}");
    ASSERT_TRUE(reply.ok());
    ASSERT_EQ(reply.value().first, 200);
  }

  Result<std::pair<int, std::string>> slow =
      HttpRoundTrip(port, "GET", "/debug/slow", "");
  ASSERT_TRUE(slow.ok());
  ASSERT_EQ(slow.value().first, 200);
  Result<obs::JsonValue> parsed = obs::ParseJson(slow.value().second);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const obs::JsonValue& root = parsed.value();
  EXPECT_EQ(root.at("capacity").number(), 4.0);
  const obs::JsonValue::Array& slowest = root.at("slowest").array();
  ASSERT_GE(slowest.size(), 1u);
  ASSERT_LE(slowest.size(), 4u);
  int64_t prev_total = std::numeric_limits<int64_t>::max();
  for (const obs::JsonValue& entry : slowest) {
    EXPECT_GT(entry.at("id").number(), 0.0);
    EXPECT_EQ(entry.at("path").string_value(), "/score");
    const int64_t total = static_cast<int64_t>(entry.at("total_us").number());
    EXPECT_GT(total, 0);
    EXPECT_LE(total, prev_total);  // Slowest first.
    prev_total = total;
    // The stage fields decompose the total.
    const double stage_sum = entry.at("queue_wait_us").number() +
                             entry.at("score_us").number() +
                             entry.at("parse_us").number() +
                             entry.at("serialize_us").number();
    EXPECT_LE(stage_sum, static_cast<double>(total) + 1.0);
  }

  server.Stop();
}

TEST(ScoringServerTest, OverlappingProfileWindowsDoNotLatchProfiling) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  ASSERT_FALSE(obs::ProfileEnabled());

  // Window A opens; window B asks 0.2 s later, while A is still open.
  Result<std::pair<int, std::string>> first =
      Status::Internal("window A not sent");
  std::thread opener([&] {
    first = HttpRoundTrip(port, "GET", "/debug/profile?seconds=1", "");
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  Result<std::pair<int, std::string>> second =
      HttpRoundTrip(port, "GET", "/debug/profile?seconds=1", "");
  opener.join();
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first.value().first, 200);
  // B is refused instead of clearing A's capture, and neither restore
  // leaves the profiler switched on behind the windows.
  EXPECT_EQ(second.value().first, 409);
  EXPECT_FALSE(obs::ProfileEnabled());

  // Once A has closed, the next window opens normally.
  Result<std::pair<int, std::string>> third =
      HttpRoundTrip(port, "GET", "/debug/profile?seconds=0.05", "");
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third.value().first, 200);
  EXPECT_FALSE(obs::ProfileEnabled());
  server.Stop();
}

TEST(ScoringServerTest, ConcurrentClientsAgainstLiveServer) {
  AttributedGraph graph = TestGraph();
  auto engine = MakeDegNormEngine(graph, {});
  DegNorm reference;
  ASSERT_TRUE(reference.Fit(graph).ok());
  const DetectorOutput expected = reference.Score(graph);

  serve::ScoringServer server(std::move(engine), /*port=*/0);
  ASSERT_TRUE(server.Start().ok());
  const int port = server.port();
  ASSERT_GT(port, 0);

  constexpr int kClients = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c]() {
      const std::string body =
          "{\"nodes\":[" + std::to_string(c) + "," +
          std::to_string(c + 10) + "]}";
      for (int i = 0; i < 5; ++i) {
        Result<std::pair<int, std::string>> reply =
            HttpRoundTrip(port, "POST", "/score", body);
        if (!reply.ok() || reply.value().first != 200 ||
            reply.value().second.find("\"scores\"") == std::string::npos) {
          failures.fetch_add(1);
          continue;
        }
        // The served score for node c must be the in-process value.
        char formatted[64];
        std::snprintf(formatted, sizeof(formatted), "%.17g",
                      expected.score[c]);
        if (reply.value().second.find(formatted) == std::string::npos) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  Result<std::pair<int, std::string>> health =
      HttpRoundTrip(port, "GET", "/healthz", "");
  ASSERT_TRUE(health.ok());
  EXPECT_EQ(health.value().first, 200);
  EXPECT_NE(health.value().second.find("\"DegNorm\""), std::string::npos);

  Result<std::pair<int, std::string>> metrics =
      HttpRoundTrip(port, "GET", "/metrics", "");
  ASSERT_TRUE(metrics.ok());
  EXPECT_EQ(metrics.value().first, 200);
  EXPECT_NE(metrics.value().second.find("serve.requests.total"),
            std::string::npos);

  Result<std::pair<int, std::string>> missing =
      HttpRoundTrip(port, "GET", "/nope", "");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing.value().first, 404);

  Result<std::pair<int, std::string>> bad_body =
      HttpRoundTrip(port, "POST", "/score", "{\"nodes\":[99999]}");
  ASSERT_TRUE(bad_body.ok());
  EXPECT_NE(bad_body.value().first, 200);

  server.Stop();
}

}  // namespace
}  // namespace vgod
