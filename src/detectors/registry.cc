#include "detectors/registry.h"

#include <algorithm>
#include <map>
#include <mutex>

#include "detectors/anomalydae.h"
#include "detectors/arm.h"
#include "detectors/cola.h"
#include "detectors/conad.h"
#include "detectors/dominant.h"
#include "detectors/guide.h"
#include "detectors/done.h"
#include "detectors/nondeep.h"
#include "detectors/simple.h"
#include "detectors/vbm.h"
#include "detectors/vgod.h"

namespace vgod::detectors {
namespace {

int ScaledEpochs(int base, double scale) {
  return std::max(1, static_cast<int>(base * scale + 0.5));
}

// Name -> factory map behind a mutex. MakeDetector used to be a chain of
// string compares over stateless constructors; the serving thread pool
// made registration state and concurrent lookups real, so the map is now
// explicit and locked. Factories are copied out before invocation so a
// slow constructor never runs under the lock.
class FactoryRegistry {
 public:
  static FactoryRegistry& Global() {
    static FactoryRegistry* registry = new FactoryRegistry();
    return *registry;
  }

  void Register(const std::string& name, DetectorFactory factory) {
    std::lock_guard<std::mutex> lock(mu_);
    factories_[name] = std::move(factory);
  }

  Result<DetectorFactory> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = factories_.find(name);
    if (it == factories_.end()) {
      return Status::NotFound("unknown detector: " + name);
    }
    return it->second;
  }

  std::vector<std::string> Names() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<std::string> names;
    names.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) names.push_back(name);
    return names;
  }

 private:
  FactoryRegistry() { RegisterBuiltins(); }
  void RegisterBuiltins();

  mutable std::mutex mu_;
  std::map<std::string, DetectorFactory> factories_;
};

template <typename D, typename C>
std::unique_ptr<OutlierDetector> MakeTrainable(C config,
                                               const DetectorOptions& o) {
  config.seed = o.seed;
  config.monitor = o.monitor;
  config.epochs = ScaledEpochs(config.epochs, o.epoch_scale);
  return std::make_unique<D>(std::move(config));
}

void FactoryRegistry::RegisterBuiltins() {
  // Callers hold no lock here (constructor), so assign directly.
  factories_["DegNorm"] = [](const DetectorOptions&) {
    return Result<std::unique_ptr<OutlierDetector>>(
        std::make_unique<DegNorm>());
  };
  factories_["Deg"] = [](const DetectorOptions&) {
    return Result<std::unique_ptr<OutlierDetector>>(std::make_unique<Deg>());
  };
  factories_["L2Norm"] = [](const DetectorOptions&) {
    return Result<std::unique_ptr<OutlierDetector>>(
        std::make_unique<L2Norm>());
  };
  factories_["Random"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        std::make_unique<RandomDetector>(o.seed));
  };
  factories_["VBM"] = [](const DetectorOptions& o) {
    VbmConfig config;
    config.self_loop = o.self_loop;
    config.row_normalize_attributes = o.row_normalize_attributes;
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Vbm>(config, o));
  };
  factories_["ARM"] = [](const DetectorOptions& o) {
    ArmConfig config;
    config.row_normalize_attributes = o.row_normalize_attributes;
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Arm>(config, o));
  };
  factories_["VGOD"] = [](const DetectorOptions& o) {
    VgodConfig config;
    config.vbm.seed = o.seed;
    config.arm.seed = o.seed + 1;
    config.vbm.monitor = o.monitor;
    config.arm.monitor = o.monitor;
    config.vbm.self_loop = o.self_loop;
    config.vbm.row_normalize_attributes = o.row_normalize_attributes;
    config.arm.row_normalize_attributes = o.row_normalize_attributes;
    config.vbm.epochs = ScaledEpochs(config.vbm.epochs, o.epoch_scale);
    config.arm.epochs = ScaledEpochs(config.arm.epochs, o.epoch_scale);
    return Result<std::unique_ptr<OutlierDetector>>(
        std::make_unique<Vgod>(config));
  };
  factories_["Dominant"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Dominant>(DominantConfig{}, o));
  };
  factories_["AnomalyDAE"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<AnomalyDae>(AnomalyDaeConfig{}, o));
  };
  factories_["DONE"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Done>(DoneConfig{}, o));
  };
  factories_["CoLA"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Cola>(ColaConfig{}, o));
  };
  factories_["CONAD"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Conad>(ConadConfig{}, o));
  };
  factories_["GUIDE"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Guide>(GuideConfig{}, o));
  };
  factories_["Radar"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Radar>(ResidualAnalysisConfig{}, o));
  };
  factories_["ANOMALOUS"] = [](const DetectorOptions& o) {
    return Result<std::unique_ptr<OutlierDetector>>(
        MakeTrainable<Anomalous>(ResidualAnalysisConfig{}, o));
  };
}

}  // namespace

const std::vector<std::string>& ComparisonDetectorNames() {
  static const std::vector<std::string>* names = new std::vector<std::string>{
      "Dominant", "AnomalyDAE", "DONE", "CoLA", "CONAD", "DegNorm", "VGOD"};
  return *names;
}

Result<std::unique_ptr<OutlierDetector>> MakeDetector(
    const std::string& name, const DetectorOptions& options) {
  Result<DetectorFactory> factory = FactoryRegistry::Global().Find(name);
  if (!factory.ok()) return factory.status();
  return factory.value()(options);
}

Result<std::unique_ptr<OutlierDetector>> MakeDetectorFromBundle(
    const ModelBundle& bundle, const DetectorOptions& options) {
  Result<std::unique_ptr<OutlierDetector>> detector =
      MakeDetector(bundle.detector, options);
  if (!detector.ok()) return detector.status();
  if (!detector.value()->supports_bundles()) {
    return Status::FailedPrecondition(bundle.detector +
                                      " does not support model bundles");
  }
  VGOD_RETURN_IF_ERROR(detector.value()->RestoreFromBundle(bundle));
  return detector;
}

void RegisterDetector(const std::string& name, DetectorFactory factory) {
  FactoryRegistry::Global().Register(name, std::move(factory));
}

std::vector<std::string> RegisteredDetectorNames() {
  return FactoryRegistry::Global().Names();
}

}  // namespace vgod::detectors
