// Tests for the crash-proofing layer (docs/ROBUSTNESS.md): the VGOD_FAULTS
// injection harness itself, bundle restore under systematic corruption
// (bit-flip, truncation, and injected short-read sweeps), the training
// divergence guard, the serving engine's non-finite score guard and
// engine-size validation, and dataset IO under hostile headers. The
// invariant throughout: untrusted or injected failures produce a
// vgod::Status, never process death.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/args.h"
#include "core/faultinject.h"
#include "core/rng.h"
#include "datasets/io.h"
#include "datasets/synthetic.h"
#include "detectors/arm.h"
#include "detectors/bundle.h"
#include "detectors/divergence.h"
#include "detectors/registry.h"
#include "detectors/simple.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"
#include "eval/metrics.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "serve/engine.h"
#include "serve/server.h"
#include "stream/events.h"
#include "tensor/autograd.h"

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

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// Saves a trained tiny-VBM bundle and returns its path.
std::string SaveTinyVbmBundle(const std::string& name) {
  AttributedGraph graph = TestGraph();
  Vbm trained(TinyVbm());
  VGOD_CHECK(trained.Fit(graph).ok());
  Result<ModelBundle> bundle = trained.ExportBundle();
  VGOD_CHECK(bundle.ok());
  const std::string path = TempPath(name);
  VGOD_CHECK(SaveBundle(bundle.value(), path).ok());
  return path;
}

// Every test that arms rules must leave the process disarmed, or the
// injection leaks into unrelated tests in this binary.
class FaultsTest : public ::testing::Test {
 protected:
  void TearDown() override { faults::Disarm(); }
};

// ---------------------------------------------------------------------------
// The injection harness itself: spec parsing and trigger semantics.

TEST_F(FaultsTest, ArmEnablesAndDisarmClears) {
  EXPECT_TRUE(faults::Arm("bundle.read=fail").ok());
  EXPECT_TRUE(faults::Enabled());
  EXPECT_TRUE(faults::ShouldFail("bundle.read"));
  EXPECT_FALSE(faults::ShouldFail("some.other.site"));
  faults::Disarm();
  EXPECT_FALSE(faults::Enabled());
  EXPECT_FALSE(faults::ShouldFail("bundle.read"));
}

TEST_F(FaultsTest, FailAtNSkipsEarlierHits) {
  ASSERT_TRUE(faults::Arm("io=fail@3").ok());
  EXPECT_FALSE(faults::ShouldFail("io"));  // Hit 1.
  EXPECT_FALSE(faults::ShouldFail("io"));  // Hit 2.
  EXPECT_TRUE(faults::ShouldFail("io"));   // Hit 3: threshold reached.
  EXPECT_TRUE(faults::ShouldFail("io"));   // Hit 4: stays failing.
  EXPECT_EQ(faults::TriggerCount("io"), 2);
}

TEST_F(FaultsTest, NanActionInjectsOnlyNan) {
  ASSERT_TRUE(faults::Arm("score=nan").ok());
  EXPECT_FALSE(faults::ShouldFail("score"));  // Wrong action kind.
  EXPECT_TRUE(std::isnan(faults::MaybeNan("score", 1.5)));
  EXPECT_EQ(faults::MaybeNan("unarmed", 1.5), 1.5);
}

TEST_F(FaultsTest, MultiRuleSpecArmsEverySite) {
  ASSERT_TRUE(faults::Arm("a=fail,b=nan;c=fail@2").ok());
  EXPECT_EQ(faults::ArmedSites().size(), 3u);
}

TEST_F(FaultsTest, RejectsMalformedSpecs) {
  EXPECT_FALSE(faults::Arm("bogus").ok());
  EXPECT_FALSE(faults::Arm("=fail").ok());
  EXPECT_FALSE(faults::Arm("site=explode").ok());
  EXPECT_FALSE(faults::Arm("site=fail@0").ok());
  EXPECT_FALSE(faults::Arm("site=fail@abc").ok());
  EXPECT_FALSE(faults::Arm("site=fail@-1").ok());
  // Empty spec is a valid "nothing armed".
  EXPECT_TRUE(faults::Arm("").ok());
  EXPECT_FALSE(faults::Enabled());
}

// ---------------------------------------------------------------------------
// Bundle restore under systematic corruption. Every variant must come back
// as a Status; a single crash fails the whole sweep.

TEST(BundleCorruptionTest, BitFlipSweepAlwaysErrorsNeverCrashes) {
  const std::string path = SaveTinyVbmBundle("bitflip_sweep.vgodb");
  const std::string original = ReadFileBytes(path);
  ASSERT_GT(original.size(), 64u);

  const std::string flipped_path = TempPath("bitflip_sweep_flipped.vgodb");
  for (size_t i = 0; i < original.size(); ++i) {
    std::string bytes = original;
    bytes[i] = static_cast<char>(bytes[i] ^ 0x5a);
    WriteFileBytes(flipped_path, bytes);
    Result<ModelBundle> loaded = LoadBundle(flipped_path);
    // The FNV-1a state transition is injective per byte, so any single
    // flip in the checksummed region changes the digest; flips in the
    // magic/version/stored-digest fields fail their own checks.
    EXPECT_FALSE(loaded.ok()) << "flip at byte " << i << " was accepted";
  }
}

TEST(BundleCorruptionTest, TruncationSweepAlwaysErrorsNeverCrashes) {
  const std::string path = SaveTinyVbmBundle("truncation_sweep.vgodb");
  const std::string original = ReadFileBytes(path);
  ASSERT_GT(original.size(), 64u);

  const std::string cut_path = TempPath("truncation_sweep_cut.vgodb");
  for (size_t len = 0; len < original.size(); ++len) {
    WriteFileBytes(cut_path, original.substr(0, len));
    Result<ModelBundle> loaded = LoadBundle(cut_path);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << len
                              << " bytes was accepted";
  }
}

TEST_F(FaultsTest, InjectedShortReadSweepErrorsAtEveryRead) {
  const std::string path = SaveTinyVbmBundle("short_read_sweep.vgodb");

  // A tiny VBM bundle takes at least 13 ReadRaw calls (magic, version,
  // two length-prefixed strings, count, and 2 tensors x 3 reads); failing
  // each one in turn exercises every truncation branch of LoadBundle.
  for (int k = 1; k <= 12; ++k) {
    ASSERT_TRUE(faults::Arm("bundle.read=fail@" + std::to_string(k)).ok());
    Result<ModelBundle> loaded = LoadBundle(path);
    EXPECT_FALSE(loaded.ok()) << "short read at call " << k
                              << " was accepted";
    EXPECT_GE(faults::TriggerCount("bundle.read"), 1);
  }

  faults::Disarm();
  EXPECT_TRUE(LoadBundle(path).ok());
}

// ---------------------------------------------------------------------------
// Hostile bundle configs: values must be range-checked before they reach a
// double -> int cast (UB when out of range) or size an allocation.

TEST(BundleCorruptionTest, RestoreRejectsOutOfRangeHiddenDim) {
  const std::string path = SaveTinyVbmBundle("hostile_config.vgodb");
  Result<ModelBundle> loaded = LoadBundle(path);
  ASSERT_TRUE(loaded.ok());

  for (const char* hostile :
       {"{\"hidden_dim\":-5}", "{\"hidden_dim\":1e300}",
        "{\"hidden_dim\":0}"}) {
    ModelBundle tampered = loaded.value();
    Result<obs::JsonValue> config = obs::ParseJson(hostile);
    ASSERT_TRUE(config.ok());
    tampered.config = std::move(config).value();
    Result<std::unique_ptr<OutlierDetector>> restored =
        MakeDetectorFromBundle(tampered);
    EXPECT_FALSE(restored.ok()) << hostile;
    if (!restored.ok()) {
      EXPECT_NE(restored.status().message().find("hidden_dim"),
                std::string::npos);
    }
  }
}

TEST(BundleCorruptionTest, ArmRestoreRejectsOutOfRangeLayerCount) {
  Arm model;
  ModelBundle bundle;
  bundle.detector = "ARM";
  Result<obs::JsonValue> config =
      obs::ParseJson("{\"hidden_dim\":8,\"num_layers\":1e9}");
  ASSERT_TRUE(config.ok());
  bundle.config = std::move(config).value();
  const Status restored = model.RestoreFromBundle(bundle);
  ASSERT_FALSE(restored.ok());
  EXPECT_NE(restored.message().find("num_layers"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Divergence guard: rollback semantics, directly and through Fit().

TEST(DivergenceGuardTest, SnapshotsAndRollsBack) {
  Variable param = Variable::Parameter(Tensor::Zeros(2, 2));
  DivergenceGuard guard({param});

  obs::EpochRecord record;
  record.detector = "TEST";
  record.planned_epochs = 3;
  record.epoch = 1;
  record.loss = 0.5;
  record.grad_norm = 1.0;
  ASSERT_TRUE(guard.Check(record).ok());
  EXPECT_EQ(guard.last_good_epoch(), 1);

  // An optimizer step after the snapshot...
  Tensor stepped = Tensor::Zeros(2, 2);
  stepped.SetAt(0, 0, 42.0f);
  param.SetValue(stepped);

  // ...then the next epoch diverges: the step must be undone.
  record.epoch = 2;
  record.loss = std::nan("");
  const Status diverged = guard.Check(record);
  ASSERT_FALSE(diverged.ok());
  EXPECT_NE(diverged.message().find("diverged at epoch 2/3"),
            std::string::npos);
  EXPECT_NE(diverged.message().find("rolled back to epoch 1"),
            std::string::npos);
  EXPECT_EQ(param.value().At(0, 0), 0.0f);
}

TEST(DivergenceGuardTest, NoSnapshotMeansNoRollback) {
  Variable param = Variable::Parameter(Tensor::Zeros(1, 1));
  DivergenceGuard guard({param});
  obs::EpochRecord record;
  record.detector = "TEST";
  record.epoch = 1;
  record.planned_epochs = 1;
  record.loss = std::numeric_limits<double>::infinity();
  const Status diverged = guard.Check(record);
  ASSERT_FALSE(diverged.ok());
  EXPECT_NE(diverged.message().find("no finite epoch to roll back to"),
            std::string::npos);
  EXPECT_EQ(guard.last_good_epoch(), 0);
}

TEST_F(FaultsTest, VbmFitSurvivesInjectedLossNan) {
  ASSERT_TRUE(faults::Arm("vbm.loss=nan@2").ok());
  AttributedGraph graph = TestGraph();
  Vbm model(TinyVbm());
  const Status fitted = model.Fit(graph);
  ASSERT_FALSE(fitted.ok());
  EXPECT_NE(fitted.message().find("diverged at epoch 2"), std::string::npos);
  EXPECT_EQ(model.train_stats().epochs, 1);  // Last finite epoch.
  faults::Disarm();

  // The rollback left epoch-1 parameters installed: the model still
  // produces finite scores instead of NaN garbage.
  const DetectorOutput output = model.Score(graph);
  ASSERT_EQ(output.score.size(), static_cast<size_t>(graph.num_nodes()));
  EXPECT_TRUE(eval::NonFiniteCheck(output.score, "post-rollback").ok());
}

TEST_F(FaultsTest, ArmFitSurvivesInjectedLossNan) {
  ASSERT_TRUE(faults::Arm("arm.loss=nan").ok());
  AttributedGraph graph = TestGraph();
  ArmConfig config;
  config.hidden_dim = 8;
  config.epochs = 3;
  Arm model(config);
  const Status fitted = model.Fit(graph);
  ASSERT_FALSE(fitted.ok());
  // Epoch 1 already diverges, so there is nothing to roll back to.
  EXPECT_NE(fitted.message().find("diverged at epoch 1"), std::string::npos);
  EXPECT_EQ(model.train_stats().epochs, 0);
}

// ---------------------------------------------------------------------------
// Serving engine: a detector emitting non-finite scores must become an
// Internal error plus a serve.errors.nonfinite_scores bump, not a served
// NaN payload.

TEST_F(FaultsTest, EngineRejectsInjectedNanScores) {
  AttributedGraph graph = TestGraph();
  auto detector = std::make_unique<DegNorm>();
  ASSERT_TRUE(detector->Fit(graph).ok());
  serve::ScoringEngine engine(std::move(detector), graph, {});
  ASSERT_TRUE(engine.Start().ok());

  obs::Counter* nonfinite = obs::MetricsRegistry::Global().GetCounter(
      "serve.errors.nonfinite_scores");
  const int64_t before = nonfinite->Value();

  ASSERT_TRUE(faults::Arm("serve.score=nan").ok());
  Result<serve::ScoreResult> poisoned = engine.ScoreNodes({0, 1});
  ASSERT_FALSE(poisoned.ok());
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal);
  EXPECT_NE(poisoned.status().message().find("unusable score"),
            std::string::npos);
  EXPECT_GT(nonfinite->Value(), before);

  faults::Disarm();
  Result<serve::ScoreResult> clean = engine.ScoreNodes({0, 1});
  EXPECT_TRUE(clean.ok()) << clean.status().ToString();
  engine.Shutdown();
}

// A refresh that produced non-finite scores must not be cached: the next
// lookup of the same graph version scores again and succeeds.
TEST_F(FaultsTest, EngineDoesNotCacheNonFiniteScores) {
  AttributedGraph graph = TestGraph();
  auto detector = std::make_unique<DegNorm>();
  ASSERT_TRUE(detector->Fit(graph).ok());
  serve::ScoringEngine engine(std::move(detector), graph, {});
  ASSERT_TRUE(engine.Start().ok());

  ASSERT_TRUE(faults::Arm("serve.score=nan").ok());
  Result<serve::ScoreResult> poisoned = engine.ScoreNodes({3});
  // Internal is what the HTTP layer answers with a 500.
  EXPECT_EQ(poisoned.status().code(), StatusCode::kInternal);
  EXPECT_EQ(engine.score_calls(), 1);

  faults::Disarm();
  Result<serve::ScoreResult> recomputed = engine.ScoreNodes({3});
  ASSERT_TRUE(recomputed.ok()) << recomputed.status().ToString();
  EXPECT_EQ(engine.score_calls(), 2);
  DegNorm reference;
  ASSERT_TRUE(reference.Fit(graph).ok());
  EXPECT_EQ(recomputed.value().score[0], reference.Score(graph).score[3]);

  // That success is cached: the next lookup does not score again.
  ASSERT_TRUE(engine.ScoreNodes({4}).ok());
  EXPECT_EQ(engine.score_calls(), 2);
  engine.Shutdown();

  // Streaming: a poisoned incremental refresh installs neither its scores
  // nor its retained state, so the next refresh patches the older state
  // with the seeds of both batches and is still exact. The graph is large
  // enough that two batches dirty well under half of it.
  graph = TestGraph(600, 2);
  VgodConfig vgod_config;
  vgod_config.vbm = TinyVbm();
  vgod_config.arm.hidden_dim = 8;
  vgod_config.arm.epochs = 3;
  auto vgod = std::make_unique<Vgod>(vgod_config);
  ASSERT_TRUE(vgod->Fit(graph).ok());
  serve::ScoringEngine streaming(std::move(vgod), graph, {});
  ASSERT_TRUE(streaming.EnableStreaming().ok());
  ASSERT_TRUE(streaming.Start().ok());
  ASSERT_TRUE(streaming.ScoreNodes({0}).ok());  // Retains the boot state.

  auto absent_neighbor = [&](int u) {
    int v = (u + 7) % graph.num_nodes();
    while (v == u || streaming.CurrentGraph()->HasEdge(u, v)) {
      v = (v + 1) % graph.num_nodes();
    }
    return v;
  };
  const std::vector<float> row(graph.attribute_dim(), 0.75f);
  stream::EventBatch first;
  first.events.push_back(stream::GraphEvent::AddEdge(3, absent_neighbor(3)));
  first.events.push_back(stream::GraphEvent::UpdateAttributes(5, row));
  ASSERT_TRUE(streaming.Ingest(first).ok());
  ASSERT_TRUE(faults::Arm("serve.score=nan").ok());
  EXPECT_EQ(streaming.ScoreNodes({3}).status().code(), StatusCode::kInternal);
  faults::Disarm();

  stream::EventBatch second;
  second.events.push_back(
      stream::GraphEvent::AddEdge(40, absent_neighbor(40)));
  second.events.push_back(stream::GraphEvent::UpdateAttributes(60, row));
  ASSERT_TRUE(streaming.Ingest(second).ok());
  auto incremental_refreshes = [] {
    Result<double> value = obs::MetricsRegistry::Global().ReadValue(
        "serve.refresh.incremental");
    return value.ok() ? value.value() : 0.0;
  };
  const double incremental_before = incremental_refreshes();
  std::vector<int> all(streaming.CurrentGraph()->num_nodes());
  for (int i = 0; i < static_cast<int>(all.size()); ++i) all[i] = i;
  Result<serve::ScoreResult> exact = streaming.ScoreNodes(all);
  ASSERT_TRUE(exact.ok()) << exact.status().ToString();
  EXPECT_EQ(incremental_refreshes(), incremental_before + 1);
  const DetectorOutput expected =
      streaming.detector().Score(*streaming.CurrentGraph());
  for (int node : all) {
    ASSERT_EQ(exact.value().score[node], expected.score[node])
        << "node " << node;
  }
  streaming.Shutdown();
}

// Engine sizes come from command-line flags (vgod_serve --threads=0):
// BuildEngine must refuse them with a Status instead of aborting in the
// engine's invariant CHECKs.
TEST(EngineConfigTest, BuildEngineRejectsBadSizes) {
  const std::string bundle = SaveTinyVbmBundle("engine_sizes.vgodb");
  const std::string graph = TempPath("engine_sizes.graph");
  ASSERT_TRUE(datasets::SaveGraph(TestGraph(), graph).ok());
  ASSERT_TRUE(serve::BuildEngine(bundle, graph, {}).ok());

  serve::EngineConfig no_threads;
  no_threads.num_threads = 0;
  serve::EngineConfig negative_intra_op;
  negative_intra_op.intra_op_threads = -1;
  serve::EngineConfig no_queue;
  no_queue.max_queue = 0;
  for (const serve::EngineConfig& config :
       {no_threads, negative_intra_op, no_queue}) {
    Result<std::unique_ptr<serve::ScoringEngine>> engine =
        serve::BuildEngine(bundle, graph, config);
    ASSERT_FALSE(engine.ok());
    EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument)
        << engine.status().ToString();
  }
}

// ---------------------------------------------------------------------------
// Dataset IO under hostile files and injected failures.

// A malformed number on the command line is an error, never 0: the old
// parser served "--port=eighty" on an ephemeral port.
TEST(ArgParserTest, RejectsMalformedNumbers) {
  for (const char* flag :
       {"--port=eighty", "--port=80x", "--port=8 0", "--port=0x50",
        "--port=99999999999999999999", "--port=1.5"}) {
    const char* argv[] = {"tool", flag};
    ArgParser args = std::move(ArgParser::Parse(2, argv)).value();
    EXPECT_EQ(args.GetInt("port", 8080), 8080) << flag;
    EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument) << flag;
    EXPECT_EQ(args.status().message(),
              std::string("invalid value for --port: ") + (flag + 7));
  }
  for (const char* flag :
       {"--scale=fast", "--scale=0.1.2", "--scale=1e999", "--scale=nan",
        "--scale=0.5s"}) {
    const char* argv[] = {"tool", flag};
    ArgParser args = std::move(ArgParser::Parse(2, argv)).value();
    EXPECT_EQ(args.GetDouble("scale", 1.0), 1.0) << flag;
    EXPECT_EQ(args.status().code(), StatusCode::kInvalidArgument) << flag;
  }
  // Well-formed values still parse, and the first bad flag is the one
  // reported.
  const char* argv[] = {"tool", "--top=-3", "--scale=2.5e-1", "--a=x",
                        "--b=y"};
  ArgParser args = std::move(ArgParser::Parse(5, argv)).value();
  EXPECT_EQ(args.GetInt("top", 10), -3);
  EXPECT_EQ(args.GetDouble("scale", 1.0), 0.25);
  EXPECT_TRUE(args.status().ok());
  args.GetInt("a", 0);
  args.GetInt("b", 0);
  EXPECT_EQ(args.status().message(), "invalid value for --a: x");
}

TEST(DatasetHostileInputTest, RejectsImplausibleHeader) {
  const std::string path = TempPath("hostile_header.graph");
  // 2e9 x 1e6 would be a petabyte-scale allocation if the header were
  // trusted.
  std::ofstream(path) << "vgod-graph 2000000000 1000000 0 0\n";
  Result<AttributedGraph> loaded = datasets::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("implausible"), std::string::npos);

  std::ofstream(path) << "vgod-graph -3 4 0 0\n";
  EXPECT_FALSE(datasets::LoadGraph(path).ok());

  std::ofstream(path) << "vgod-graph what no 0 0\n";
  EXPECT_FALSE(datasets::LoadGraph(path).ok());
}

TEST(DatasetHostileInputTest, RejectsNonFiniteAttributes) {
  // Depending on the standard library, "nan" either parses to a NaN
  // (caught by the isfinite gate) or fails float extraction (caught by
  // the malformed-row gate); both must be a Status, never a poisoned
  // attribute tensor.
  const std::string path = TempPath("hostile_nan.graph");
  std::ofstream(path) << "vgod-graph 2 2 0 0\n1 2\nnan 4\nedges\n0 1\n";
  EXPECT_FALSE(datasets::LoadGraph(path).ok());
  std::ofstream(path) << "vgod-graph 2 2 0 0\n1 2\ninf 4\nedges\n0 1\n";
  EXPECT_FALSE(datasets::LoadGraph(path).ok());
}

TEST(DatasetHostileInputTest, RejectsTruncatedNodeTable) {
  const std::string path = TempPath("hostile_truncated.graph");
  std::ofstream(path) << "vgod-graph 3 2 0 0\n1 2\n3 4\n";
  EXPECT_FALSE(datasets::LoadGraph(path).ok());
}

TEST(DatasetHostileInputTest, RejectsMalformedEdgeList) {
  const std::string path = TempPath("hostile_edges.graph");
  std::ofstream(path) << "vgod-graph 2 2 0 0\n1 2\n3 4\nedges\n0 1\nnot an"
                      << " edge\n";
  Result<AttributedGraph> loaded = datasets::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("edge list"), std::string::npos);
}

TEST_F(FaultsTest, InjectedDatasetReadFailure) {
  const std::string path = TempPath("injected_read.graph");
  std::ofstream(path) << "vgod-graph 2 2 0 0\n1 2\n3 4\nedges\n0 1\n";
  ASSERT_TRUE(datasets::LoadGraph(path).ok());

  ASSERT_TRUE(faults::Arm("dataset.read=fail").ok());
  Result<AttributedGraph> loaded = datasets::LoadGraph(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kIoError);
  EXPECT_NE(loaded.status().message().find("injected"), std::string::npos);
}

}  // namespace
}  // namespace vgod
