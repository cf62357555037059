#include <gtest/gtest.h>

#include <cmath>

#include "core/rng.h"
#include "datasets/synthetic.h"
#include "detectors/anomalydae.h"
#include "detectors/arm.h"
#include "detectors/cola.h"
#include "detectors/conad.h"
#include "detectors/dominant.h"
#include "detectors/guide.h"
#include "detectors/nondeep.h"
#include "detectors/done.h"
#include "detectors/registry.h"
#include "detectors/simple.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"
#include "eval/metrics.h"
#include "injection/injection.h"
#include "obs/monitor.h"

namespace vgod {
namespace {

using namespace ::vgod::detectors;  // NOLINT: test-local convenience.

AttributedGraph CleanGraph(int n = 300, uint64_t seed = 1) {
  datasets::SyntheticGraphSpec spec;
  spec.num_nodes = n;
  spec.num_communities = 4;
  spec.avg_degree = 4.0;
  spec.attribute_dim = 48;
  spec.topic_dims_per_community = 10;
  Rng rng(seed);
  return datasets::GeneratePlantedPartition(spec, &rng);
}

injection::InjectionResult StandardInjected(uint64_t seed = 2) {
  AttributedGraph g = CleanGraph(300, seed);
  Rng rng(seed + 1);
  return std::move(injection::InjectStandard(g, 2, 8, 50, &rng)).value();
}

VbmConfig SmallVbm(bool self_loop = false) {
  VbmConfig config;
  config.hidden_dim = 32;
  config.epochs = 8;
  config.self_loop = self_loop;
  return config;
}

ArmConfig SmallArm(gnn::GnnKind kind = gnn::GnnKind::kGat) {
  ArmConfig config;
  config.hidden_dim = 16;  // Test graphs are ~300 nodes; see ArmConfig docs.
  config.epochs = 30;
  config.gnn = kind;
  return config;
}

bool AllFinite(const std::vector<double>& scores) {
  for (double s : scores) {
    if (!std::isfinite(s)) return false;
  }
  return true;
}

// --- simple probes ---

TEST(SimpleDetectorsTest, DegNormComponentsAndCombination) {
  injection::InjectionResult injected = StandardInjected();
  DegNorm detector;
  ASSERT_TRUE(detector.Fit(injected.graph).ok());
  DetectorOutput out = detector.Score(injected.graph);
  ASSERT_TRUE(out.has_components());
  EXPECT_EQ(out.score.size(), static_cast<size_t>(injected.graph.num_nodes()));
  // Leakage: degree detects structural, L2 detects contextual outliers.
  EXPECT_GT(eval::AucSubset(out.structural_score, injected.combined,
                            injected.structural),
            0.9);
  EXPECT_GT(eval::AucSubset(out.contextual_score, injected.combined,
                            injected.contextual),
            0.75);
  EXPECT_GT(eval::Auc(out.score, injected.combined), 0.75);
}

TEST(SimpleDetectorsTest, RandomDetectorNearHalf) {
  injection::InjectionResult injected = StandardInjected();
  RandomDetector detector(3);
  ASSERT_TRUE(detector.Fit(injected.graph).ok());
  EXPECT_NEAR(eval::Auc(detector.Score(injected.graph).score,
                        injected.combined),
              0.5, 0.2);
}

// --- VBM ---

TEST(VbmTest, DetectsStructuralOutliers) {
  AttributedGraph g = CleanGraph(300, 5);
  Rng rng(6);
  injection::InjectionResult injected =
      std::move(injection::InjectStructuralOutliers(g, 2, 8, &rng)).value();
  Vbm vbm(SmallVbm());
  ASSERT_TRUE(vbm.Fit(injected.graph).ok());
  DetectorOutput out = vbm.Score(injected.graph);
  EXPECT_GT(eval::Auc(out.score, injected.structural), 0.85);
}

TEST(VbmTest, DetectsEdgeReplacementOutliersWithoutDegreeSignal) {
  // The decisive experiment (paper Table VI): no degree leakage at all.
  AttributedGraph g = CleanGraph(400, 7);
  Rng rng(8);
  injection::InjectionResult injected =
      std::move(injection::InjectStructuralByEdgeReplacement(g, 40, &rng))
          .value();
  // Self-loop matters on sparse graphs: degree-1 victims have zero
  // neighbor variance without it (the paper enables it on the sparse
  // citation datasets).
  Vbm vbm(SmallVbm(/*self_loop=*/true));
  ASSERT_TRUE(vbm.Fit(injected.graph).ok());
  EXPECT_GT(eval::Auc(vbm.Score(injected.graph).score, injected.structural),
            0.75);
  // Degree is (near) useless here.
  Deg deg;
  ASSERT_TRUE(deg.Fit(injected.graph).ok());
  EXPECT_LT(eval::Auc(deg.Score(injected.graph).score, injected.structural),
            0.65);
}

TEST(VbmTest, SelfLoopEnablesContextualDetection) {
  // Paper Table XI: plain VBM is blind to contextual outliers (~0.5 AUC);
  // the self-loop technique makes them visible.
  AttributedGraph g = CleanGraph(300, 9);
  Rng rng(10);
  injection::InjectionResult injected =
      std::move(injection::InjectContextualOutliers(
                    g, 20, 50, injection::DistanceKind::kEuclidean, &rng))
          .value();
  Vbm plain(SmallVbm(false));
  Vbm with_loop(SmallVbm(true));
  ASSERT_TRUE(plain.Fit(injected.graph).ok());
  ASSERT_TRUE(with_loop.Fit(injected.graph).ok());
  const double auc_plain =
      eval::Auc(plain.Score(injected.graph).score, injected.contextual);
  const double auc_loop =
      eval::Auc(with_loop.Score(injected.graph).score, injected.contextual);
  EXPECT_LT(auc_plain, 0.7);
  EXPECT_GT(auc_loop, auc_plain + 0.1);
}

TEST(VbmTest, MonitorReceivesEpochRecordsAndScores) {
  injection::InjectionResult injected = StandardInjected(11);
  VbmConfig config = SmallVbm();
  config.epochs = 3;
  obs::TrainingMonitor monitor;
  int calls = 0;
  monitor.SetScoreProbe([&calls, &injected](const std::string& detector,
                                            int epoch,
                                            const std::vector<double>& scores) {
    ++calls;
    EXPECT_EQ(detector, "VBM");
    EXPECT_EQ(epoch, calls);
    EXPECT_EQ(scores.size(),
              static_cast<size_t>(injected.graph.num_nodes()));
  });
  config.monitor = &monitor;
  Vbm vbm(config);
  ASSERT_TRUE(vbm.Fit(injected.graph).ok());
  EXPECT_EQ(calls, 3);
  const std::vector<obs::EpochRecord> records = monitor.Records();
  ASSERT_EQ(records.size(), 3u);
  ASSERT_EQ(vbm.train_stats().epoch_records.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const obs::EpochRecord& record = records[i];
    EXPECT_EQ(record.detector, "VBM");
    EXPECT_EQ(record.epoch, i + 1);
    EXPECT_EQ(record.planned_epochs, 3);
    EXPECT_TRUE(std::isfinite(record.loss));
    EXPECT_GE(record.grad_norm, 0.0);
    EXPECT_GT(record.seconds, 0.0);
  }
}

TEST(VbmTest, TrainStatsPopulated) {
  injection::InjectionResult injected = StandardInjected(12);
  Vbm vbm(SmallVbm());
  ASSERT_TRUE(vbm.Fit(injected.graph).ok());
  EXPECT_EQ(vbm.train_stats().epochs, 8);
  EXPECT_GT(vbm.train_stats().train_seconds, 0.0);
  EXPECT_GT(vbm.train_stats().SecondsPerEpoch(), 0.0);
}

TEST(VbmTest, RequiresAttributes) {
  Result<AttributedGraph> g =
      AttributedGraph::FromEdgeList(10, {{0, 1}}, Tensor());
  Vbm vbm(SmallVbm());
  EXPECT_EQ(vbm.Fit(g.value()).code(), StatusCode::kFailedPrecondition);
}

// --- ARM ---

TEST(ArmTest, DetectsContextualOutliers) {
  AttributedGraph g = CleanGraph(300, 13);
  Rng rng(14);
  injection::InjectionResult injected =
      std::move(injection::InjectContextualOutliers(
                    g, 20, 50, injection::DistanceKind::kEuclidean, &rng))
          .value();
  Arm arm(SmallArm());
  ASSERT_TRUE(arm.Fit(injected.graph).ok());
  EXPECT_GT(eval::Auc(arm.Score(injected.graph).score, injected.contextual),
            0.8);
}

class ArmBackboneTest : public ::testing::TestWithParam<gnn::GnnKind> {};

TEST_P(ArmBackboneTest, EveryBackboneLearnsToReconstruct) {
  AttributedGraph g = CleanGraph(250, 15);
  Rng rng(16);
  injection::InjectionResult injected =
      std::move(injection::InjectContextualOutliers(
                    g, 16, 50, injection::DistanceKind::kEuclidean, &rng))
          .value();
  Arm arm(SmallArm(GetParam()));
  ASSERT_TRUE(arm.Fit(injected.graph).ok());
  DetectorOutput out = arm.Score(injected.graph);
  EXPECT_TRUE(AllFinite(out.score));
  EXPECT_GT(eval::Auc(out.score, injected.contextual), 0.65)
      << gnn::GnnKindName(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Backbones, ArmBackboneTest,
                         ::testing::Values(gnn::GnnKind::kGcn,
                                           gnn::GnnKind::kGat,
                                           gnn::GnnKind::kGin),
                         [](const ::testing::TestParamInfo<gnn::GnnKind>& i) {
                           return gnn::GnnKindName(i.param);
                         });

// --- VGOD ---

TEST(VgodTest, BalancedDetectionOnStandardInjection) {
  injection::InjectionResult injected = StandardInjected(17);
  VgodConfig config;
  config.vbm = SmallVbm(true);
  config.arm = SmallArm();
  Vgod vgod(config);
  ASSERT_TRUE(vgod.Fit(injected.graph).ok());
  DetectorOutput out = vgod.Score(injected.graph);
  ASSERT_TRUE(out.has_components());
  const double auc = eval::Auc(out.score, injected.combined);
  EXPECT_GT(auc, 0.8);
  const double str_auc =
      eval::AucSubset(out.score, injected.combined, injected.structural);
  const double ctx_auc =
      eval::AucSubset(out.score, injected.combined, injected.contextual);
  EXPECT_LT(eval::AucGap(str_auc, ctx_auc), 1.4);
}

TEST(VgodTest, CombinationStrategiesProduceDifferentScores) {
  injection::InjectionResult injected = StandardInjected(18);
  for (ScoreCombination combination :
       {ScoreCombination::kMeanStd, ScoreCombination::kSumToUnit,
        ScoreCombination::kWeighted}) {
    VgodConfig config;
    config.vbm = SmallVbm(true);
    config.vbm.epochs = 3;
    config.arm = SmallArm();
    config.arm.epochs = 10;
    config.combination = combination;
    Vgod vgod(config);
    ASSERT_TRUE(vgod.Fit(injected.graph).ok());
    DetectorOutput out = vgod.Score(injected.graph);
    EXPECT_TRUE(AllFinite(out.score))
        << ScoreCombinationName(combination);
    EXPECT_GT(eval::Auc(out.score, injected.combined), 0.6)
        << ScoreCombinationName(combination);
  }
}

// --- baselines: mechanical soundness + basic quality ---

TEST(DominantTest, RunsAndDetectsSomething) {
  injection::InjectionResult injected = StandardInjected(19);
  DominantConfig config;
  config.hidden_dim = 32;
  config.epochs = 25;
  Dominant dominant(config);
  ASSERT_TRUE(dominant.Fit(injected.graph).ok());
  DetectorOutput out = dominant.Score(injected.graph);
  ASSERT_TRUE(out.has_components());
  EXPECT_TRUE(AllFinite(out.score));
  EXPECT_GT(eval::Auc(out.score, injected.combined), 0.55);
}

TEST(AnomalyDaeTest, RunsAndRefusesInductive) {
  injection::InjectionResult injected = StandardInjected(20);
  AnomalyDaeConfig config;
  config.hidden_dim = 32;
  config.epochs = 25;
  AnomalyDae model(config);
  EXPECT_FALSE(model.supports_inductive());
  ASSERT_TRUE(model.Fit(injected.graph).ok());
  DetectorOutput out = model.Score(injected.graph);
  EXPECT_TRUE(AllFinite(out.score));
  EXPECT_GT(eval::Auc(out.score, injected.combined), 0.55);
  // Scoring a different-size graph must abort (model is graph-bound).
  AttributedGraph other = CleanGraph(100, 21);
  EXPECT_DEATH(model.Score(other), "non-inductive");
}

TEST(DoneTest, RunsWithFiveTermLoss) {
  injection::InjectionResult injected = StandardInjected(22);
  DoneConfig config;
  config.hidden_dim = 32;
  config.epochs = 20;
  Done done(config);
  ASSERT_TRUE(done.Fit(injected.graph).ok());
  DetectorOutput out = done.Score(injected.graph);
  ASSERT_TRUE(out.has_components());
  EXPECT_TRUE(AllFinite(out.score));
  EXPECT_GT(eval::Auc(out.score, injected.combined), 0.55);
}

TEST(ColaTest, RunsMultiRoundInference) {
  injection::InjectionResult injected = StandardInjected(23);
  ColaConfig config;
  config.hidden_dim = 32;
  config.epochs = 10;
  config.test_rounds = 4;
  Cola cola(config);
  ASSERT_TRUE(cola.Fit(injected.graph).ok());
  DetectorOutput out = cola.Score(injected.graph);
  EXPECT_TRUE(AllFinite(out.score));
  EXPECT_EQ(out.score.size(),
            static_cast<size_t>(injected.graph.num_nodes()));
  // CoLA emits no component scores (paper Table II).
  EXPECT_FALSE(out.has_components());
}

TEST(ConadTest, RunsWithAugmentation) {
  injection::InjectionResult injected = StandardInjected(24);
  ConadConfig config;
  config.hidden_dim = 32;
  config.epochs = 15;
  Conad conad(config);
  ASSERT_TRUE(conad.Fit(injected.graph).ok());
  DetectorOutput out = conad.Score(injected.graph);
  ASSERT_TRUE(out.has_components());
  EXPECT_TRUE(AllFinite(out.score));
  EXPECT_GT(eval::Auc(out.score, injected.combined), 0.55);
}

// --- mini-batch VBM (paper §V-D extension) ---

TEST(VbmMiniBatchTest, MatchesFullBatchQuality) {
  AttributedGraph g = CleanGraph(300, 27);
  Rng rng(28);
  injection::InjectionResult injected =
      std::move(injection::InjectStructuralOutliers(g, 2, 8, &rng)).value();

  VbmConfig full = SmallVbm();
  VbmConfig mini = SmallVbm();
  mini.batch_size = 64;
  Vbm vbm_full(full), vbm_mini(mini);
  ASSERT_TRUE(vbm_full.Fit(injected.graph).ok());
  ASSERT_TRUE(vbm_mini.Fit(injected.graph).ok());
  const double auc_full =
      eval::Auc(vbm_full.Score(injected.graph).score, injected.structural);
  const double auc_mini =
      eval::Auc(vbm_mini.Score(injected.graph).score, injected.structural);
  EXPECT_GT(auc_full, 0.85);
  EXPECT_GT(auc_mini, 0.85);
  EXPECT_NEAR(auc_mini, auc_full, 0.1);
}

TEST(VbmMiniBatchTest, NeighborSamplingCapWorks) {
  AttributedGraph g = CleanGraph(300, 29);
  Rng rng(30);
  injection::InjectionResult injected =
      std::move(injection::InjectStructuralOutliers(g, 2, 10, &rng)).value();
  VbmConfig config = SmallVbm();
  config.batch_size = 50;
  config.max_neighbors_per_node = 4;  // Below the injected clique degree.
  Vbm vbm(config);
  ASSERT_TRUE(vbm.Fit(injected.graph).ok());
  EXPECT_GT(eval::Auc(vbm.Score(injected.graph).score, injected.structural),
            0.8);
}

TEST(VbmMiniBatchTest, BatchSizeLargerThanGraph) {
  AttributedGraph g = CleanGraph(120, 31);
  Rng rng(32);
  injection::InjectionResult injected =
      std::move(injection::InjectStructuralOutliers(g, 1, 8, &rng)).value();
  VbmConfig config = SmallVbm();
  config.batch_size = 10000;  // One batch covering everything.
  Vbm vbm(config);
  ASSERT_TRUE(vbm.Fit(injected.graph).ok());
  EXPECT_GT(eval::Auc(vbm.Score(injected.graph).score, injected.structural),
            0.8);
}

// --- non-deep baselines (Radar / ANOMALOUS) ---

TEST(NonDeepTest, RadarDetectsContextualOutliers) {
  AttributedGraph g = CleanGraph(250, 37);
  Rng rng(38);
  injection::InjectionResult injected =
      std::move(injection::InjectContextualOutliers(
                    g, 16, 50, injection::DistanceKind::kEuclidean, &rng))
          .value();
  ResidualAnalysisConfig config;
  config.epochs = 40;
  Radar radar(config);
  ASSERT_TRUE(radar.Fit(injected.graph).ok());
  EXPECT_GT(eval::Auc(radar.Score(injected.graph).score, injected.contextual),
            0.7);
  EXPECT_FALSE(radar.supports_inductive());
}

TEST(NonDeepTest, AnomalousDetectsContextualOutliers) {
  AttributedGraph g = CleanGraph(250, 39);
  Rng rng(40);
  injection::InjectionResult injected =
      std::move(injection::InjectContextualOutliers(
                    g, 16, 50, injection::DistanceKind::kEuclidean, &rng))
          .value();
  ResidualAnalysisConfig config;
  config.epochs = 40;
  Anomalous anomalous(config);
  ASSERT_TRUE(anomalous.Fit(injected.graph).ok());
  EXPECT_GT(
      eval::Auc(anomalous.Score(injected.graph).score, injected.contextual),
      0.7);
}

TEST(NonDeepTest, RegistryBuildsBoth) {
  injection::InjectionResult injected = StandardInjected(41);
  DetectorOptions options;
  options.epoch_scale = 0.3;
  for (const char* name : {"Radar", "ANOMALOUS"}) {
    Result<std::unique_ptr<OutlierDetector>> detector =
        MakeDetector(name, options);
    ASSERT_TRUE(detector.ok()) << name;
    ASSERT_TRUE(detector.value()->Fit(injected.graph).ok()) << name;
    EXPECT_TRUE(AllFinite(detector.value()->Score(injected.graph).score))
        << name;
  }
}

TEST(NonDeepTest, ScoringDifferentGraphAborts) {
  injection::InjectionResult injected = StandardInjected(42);
  ResidualAnalysisConfig config;
  config.epochs = 5;
  Radar radar(config);
  ASSERT_TRUE(radar.Fit(injected.graph).ok());
  AttributedGraph other = CleanGraph(100, 43);
  EXPECT_DEATH(radar.Score(other), "non-inductive");
}

// --- GUIDE (higher-order structure reconstruction, paper ref [21]) ---

TEST(GuideTest, MotifReconstructionFlagsCliques) {
  AttributedGraph g = CleanGraph(300, 45);
  Rng rng(46);
  injection::InjectionResult injected =
      std::move(injection::InjectStructuralOutliers(g, 2, 8, &rng)).value();
  GuideConfig config;
  config.epochs = 25;
  Guide guide(config);
  ASSERT_TRUE(guide.Fit(injected.graph).ok());
  DetectorOutput out = guide.Score(injected.graph);
  ASSERT_TRUE(out.has_components());
  // Injected cliques have extreme motif statistics; the structural
  // component must pick them up.
  EXPECT_GT(eval::Auc(out.structural_score, injected.structural), 0.8);
}

TEST(GuideTest, RegistryAndInductive) {
  injection::InjectionResult injected = StandardInjected(47);
  DetectorOptions options;
  options.epoch_scale = 0.5;
  Result<std::unique_ptr<OutlierDetector>> guide =
      MakeDetector("GUIDE", options);
  ASSERT_TRUE(guide.ok());
  EXPECT_TRUE(guide.value()->supports_inductive());
  ASSERT_TRUE(guide.value()->Fit(injected.graph).ok());
  EXPECT_TRUE(AllFinite(guide.value()->Score(injected.graph).score));
}

// --- rank score combination (extension) ---

TEST(VgodTest, RankCombinationWorks) {
  injection::InjectionResult injected = StandardInjected(44);
  VgodConfig config;
  config.vbm = SmallVbm(true);
  config.vbm.epochs = 3;
  config.arm = SmallArm();
  config.arm.epochs = 10;
  config.combination = ScoreCombination::kRank;
  Vgod vgod(config);
  ASSERT_TRUE(vgod.Fit(injected.graph).ok());
  DetectorOutput out = vgod.Score(injected.graph);
  EXPECT_TRUE(AllFinite(out.score));
  // Rank sums live in (0, 2].
  for (double s : out.score) {
    EXPECT_GT(s, 0.0);
    EXPECT_LE(s, 2.0);
  }
  EXPECT_GT(eval::Auc(out.score, injected.combined), 0.6);
}

// --- registry ---

TEST(DetectorRegistryTest, AllComparisonNamesBuildAndRun) {
  injection::InjectionResult injected = StandardInjected(25);
  DetectorOptions options;
  options.epoch_scale = 0.1;  // Keep this smoke test fast.
  for (const std::string& name : ComparisonDetectorNames()) {
    Result<std::unique_ptr<OutlierDetector>> detector =
        MakeDetector(name, options);
    ASSERT_TRUE(detector.ok()) << name;
    EXPECT_EQ(detector.value()->name(), name);
    ASSERT_TRUE(detector.value()->Fit(injected.graph).ok()) << name;
    DetectorOutput out = detector.value()->Score(injected.graph);
    EXPECT_EQ(out.score.size(),
              static_cast<size_t>(injected.graph.num_nodes()))
        << name;
    EXPECT_TRUE(AllFinite(out.score)) << name;
  }
}

TEST(DetectorRegistryTest, ComponentDetectorNames) {
  for (const char* name : {"VBM", "ARM", "Deg", "L2Norm", "Random"}) {
    EXPECT_TRUE(MakeDetector(name).ok()) << name;
  }
  EXPECT_EQ(MakeDetector("GPT").status().code(), StatusCode::kNotFound);
}

TEST(DetectorRegistryTest, DeterministicAcrossRuns) {
  injection::InjectionResult injected = StandardInjected(26);
  DetectorOptions options;
  options.seed = 99;
  options.epoch_scale = 0.3;
  auto run = [&]() {
    std::unique_ptr<OutlierDetector> detector =
        std::move(MakeDetector("VGOD", options)).value();
    VGOD_CHECK(detector->Fit(injected.graph).ok());
    return detector->Score(injected.graph).score;
  };
  std::vector<double> a = run();
  std::vector<double> b = run();
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) EXPECT_DOUBLE_EQ(a[i], b[i]);
}

}  // namespace
}  // namespace vgod
