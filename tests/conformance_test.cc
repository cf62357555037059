// Detector conformance suite: every detector reachable through the
// registry — built-ins and future RegisterDetector additions alike — must
// honor the OutlierDetector contract the benchmark matrix, the serving
// layer, and the bundle tooling rely on:
//   * Fit then Score yields one finite score per node (components sized
//     consistently when present);
//   * Score is deterministic: bit-identical on repeat calls and across
//     par::SetNumThreads settings (docs/PARALLELISM.md);
//   * bundle-capable detectors round-trip export -> restore -> Score
//     bit-identically; the rest fail ExportBundle with a Status;
//   * hostile inputs (unknown names, mismatched or truncated bundles)
//     come back as Status errors, never process death.
// The suite iterates RegisteredDetectorNames(), so registering a new
// detector automatically puts it under contract.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "core/parallel.h"
#include "core/rng.h"
#include "datasets/synthetic.h"
#include "detectors/registry.h"
#include "injection/injection.h"

namespace vgod {
namespace {

using detectors::DetectorOptions;
using detectors::DetectorOutput;
using detectors::MakeDetector;
using detectors::MakeDetectorFromBundle;
using detectors::ModelBundle;
using detectors::OutlierDetector;

/// One small shared benchmark graph with injected outliers so detector
/// scores carry real signal. Built once: conformance is about contracts,
/// not accuracy, and Fit dominates the suite's runtime.
const AttributedGraph& TestGraph() {
  static const AttributedGraph* graph = [] {
    datasets::SyntheticGraphSpec spec;
    spec.num_nodes = 120;
    spec.num_communities = 4;
    spec.avg_degree = 4.0;
    spec.attribute_dim = 32;
    spec.topic_dims_per_community = 6;
    Rng rng(7);
    AttributedGraph base = datasets::GeneratePlantedPartition(spec, &rng);
    Rng inject_rng(8);
    return new AttributedGraph(
        std::move(injection::InjectStandard(base, 2, 4, 10, &inject_rng))
            .value()
            .graph);
  }();
  return *graph;
}

DetectorOptions SmallOptions() {
  DetectorOptions options;
  options.seed = 7;
  options.epoch_scale = 0.05;  // Contract checks, not accuracy.
  return options;
}

std::unique_ptr<OutlierDetector> FittedDetector(const std::string& name) {
  Result<std::unique_ptr<OutlierDetector>> detector =
      MakeDetector(name, SmallOptions());
  EXPECT_TRUE(detector.ok()) << detector.status().ToString();
  if (!detector.ok()) return nullptr;
  const Status fit = detector.value()->Fit(TestGraph());
  EXPECT_TRUE(fit.ok()) << name << ": " << fit.ToString();
  if (!fit.ok()) return nullptr;
  return std::move(detector).value();
}

class DetectorConformanceTest : public ::testing::TestWithParam<std::string> {};

TEST_P(DetectorConformanceTest, FitThenScoreYieldsFiniteScoresPerNode) {
  std::unique_ptr<OutlierDetector> detector = FittedDetector(GetParam());
  ASSERT_NE(detector, nullptr);
  const int n = TestGraph().num_nodes();
  const DetectorOutput out = detector->Score(TestGraph());
  ASSERT_EQ(static_cast<int>(out.score.size()), n);
  for (int i = 0; i < n; ++i) {
    EXPECT_TRUE(std::isfinite(out.score[i])) << "score[" << i << "]";
  }
  if (out.has_components()) {
    ASSERT_EQ(static_cast<int>(out.structural_score.size()), n);
    ASSERT_EQ(static_cast<int>(out.contextual_score.size()), n);
    for (int i = 0; i < n; ++i) {
      EXPECT_TRUE(std::isfinite(out.structural_score[i]));
      EXPECT_TRUE(std::isfinite(out.contextual_score[i]));
    }
  }
}

TEST_P(DetectorConformanceTest, ScoreIsDeterministicAcrossThreadCounts) {
  std::unique_ptr<OutlierDetector> detector = FittedDetector(GetParam());
  ASSERT_NE(detector, nullptr);
  const DetectorOutput first = detector->Score(TestGraph());
  const DetectorOutput repeat = detector->Score(TestGraph());
  EXPECT_EQ(first.score, repeat.score) << "Score not idempotent";
  par::SetNumThreads(8);
  const DetectorOutput threaded = detector->Score(TestGraph());
  par::SetNumThreads(1);
  const DetectorOutput serial = detector->Score(TestGraph());
  EXPECT_EQ(threaded.score, first.score) << "8-thread Score diverged";
  EXPECT_EQ(serial.score, first.score) << "1-thread Score diverged";
  EXPECT_EQ(threaded.structural_score, serial.structural_score);
  EXPECT_EQ(threaded.contextual_score, serial.contextual_score);
}

TEST_P(DetectorConformanceTest, BundleRoundTripOrCleanRefusal) {
  std::unique_ptr<OutlierDetector> detector = FittedDetector(GetParam());
  ASSERT_NE(detector, nullptr);
  Result<ModelBundle> bundle = detector->ExportBundle();
  if (!detector->supports_bundles()) {
    // Non-bundle detectors must refuse with a Status, not die.
    EXPECT_FALSE(bundle.ok()) << GetParam()
                              << " exported despite supports_bundles()=false";
    return;
  }
  ASSERT_TRUE(bundle.ok()) << bundle.status().ToString();
  Result<std::unique_ptr<OutlierDetector>> restored =
      MakeDetectorFromBundle(bundle.value(), SmallOptions());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  const DetectorOutput original = detector->Score(TestGraph());
  const DetectorOutput roundtrip = restored.value()->Score(TestGraph());
  EXPECT_EQ(original.score, roundtrip.score)
      << GetParam() << ": bundle round-trip changed scores";
}

TEST_P(DetectorConformanceTest, HostileBundlesReturnStatusNotDeath) {
  std::unique_ptr<OutlierDetector> detector = FittedDetector(GetParam());
  ASSERT_NE(detector, nullptr);
  if (!detector->supports_bundles()) return;
  Result<ModelBundle> exported = detector->ExportBundle();
  ASSERT_TRUE(exported.ok()) << exported.status().ToString();

  // Wrong detector name: the registry must refuse to assign the weights.
  ModelBundle wrong_name = exported.value();
  wrong_name.detector = "NoSuchDetector";
  EXPECT_FALSE(MakeDetectorFromBundle(wrong_name, SmallOptions()).ok());

  // A bundle with an empty name cannot be routed either.
  ModelBundle unnamed = exported.value();
  unnamed.detector.clear();
  EXPECT_FALSE(MakeDetectorFromBundle(unnamed, SmallOptions()).ok());

  // Truncated parameter list: restore must fail on the count mismatch.
  if (!exported.value().params.empty()) {
    ModelBundle truncated = exported.value();
    truncated.params.pop_back();
    EXPECT_FALSE(detector->RestoreFromBundle(truncated).ok())
        << GetParam() << " accepted a truncated bundle";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegisteredDetectors, DetectorConformanceTest,
    ::testing::ValuesIn(detectors::RegisteredDetectorNames()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
      }
      return name;
    });

TEST(DetectorRegistryConformanceTest, UnknownNameIsStatusNotDeath) {
  EXPECT_FALSE(MakeDetector("NoSuchDetector", SmallOptions()).ok());
  EXPECT_FALSE(MakeDetector("", SmallOptions()).ok());
}

TEST(DetectorRegistryConformanceTest, RegistryListsComparisonDetectors) {
  const std::vector<std::string> names = detectors::RegisteredDetectorNames();
  for (const std::string& name : detectors::ComparisonDetectorNames()) {
    EXPECT_TRUE(std::find(names.begin(), names.end(), name) != names.end())
        << name << " missing from RegisteredDetectorNames()";
  }
}

}  // namespace
}  // namespace vgod
