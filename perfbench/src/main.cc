// perfbench_runner: runs one benchmark workload and prints its result.
// Invoked by perfbench/run.py, which builds it; see perfbench/README.md.
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "core/logging.h"

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--workload") {
      options.workload = value();
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::atoi(value().c_str());
    } else if (arg == "--trace") {
      options.trace = value() == "1";
    } else if (arg == "--server") {
      options.server_binary = value();
    } else if (arg == "--workdir") {
      options.workdir = value();
    } else if (arg == "--outdir") {
      options.outdir = value();
    } else if (arg == "--selftest") {
      selftest = true;
    } else {
      std::fprintf(stderr, "unknown argument %s\n", arg.c_str());
      return 2;
    }
  }
  if (options.seconds < 1) options.seconds = 1;

  Report report;
  // The checks' self-test runs first on every run: a check that cannot
  // fail would make every "correct" below meaningless.
  const int missed = RunSelfTest(&report);
  if (selftest) {
    std::printf("{\"selftest\":%s,\"missed\":%d}\n",
                missed == 0 ? "true" : "false", missed);
    return missed == 0 ? 0 : 1;
  }

  // Workloads differ in graph size only; every run goes through all three
  // stages (perfbench/README.md "Workloads").
  if (options.workload == "pubmed-3000") {
    options.scale = 1.0;
  } else if (options.workload == "pubmed-1500") {
    options.scale = 0.5;
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return 2;
  }
  if (options.trace) Tracer::Get().Enable();
  report.SetTraced(options.trace);
  Pipeline pipeline;
  std::vector<std::unique_ptr<Stage>> stages;
  stages.push_back(MakeDetectStage(options, &pipeline, &report));
  stages.push_back(MakeStaticStage(options, &pipeline, &report));
  stages.push_back(MakeStreamStage(options, &pipeline, &report));
  Status status = Status::Ok();
  for (auto& stage : stages) {
    if (status.ok()) status = stage->Start();
  }
  for (int round = 0; round < kRounds && status.ok(); ++round) {
    for (auto& stage : stages) {
      if (status.ok()) status = stage->Round(round);
      for (auto& sampled : stages) {
        if (status.ok()) status = sampled->Sample();
      }
    }
  }
  for (auto& stage : stages) {
    if (status.ok()) status = stage->Finish();
  }
  if (status.ok()) {
    report.EndToEnd("setup_s", pipeline.setup_s, "s");
    report.EndToEnd("peak_rss_mb", pipeline.peak_rss_mb, "MiB");
  }
  if (status.ok() && options.trace) {
    status = RunLayerSuite(options, pipeline, &report);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "[perfbench] workload failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  if (options.trace && !options.outdir.empty()) {
    ::mkdir(options.outdir.c_str(), 0755);
    const std::string path = options.outdir + "/spans-" + options.workload +
                             "-" + std::to_string(options.seed) + ".json";
    Status written = Tracer::Get().Write(path);
    if (!written.ok()) {
      std::fprintf(stderr, "[perfbench] %s\n", written.ToString().c_str());
    }
  }
  report.Print(options.workload, options.seed);
  return 0;
}
