// BOND-style benchmark matrix runner (docs/BENCHMARKS.md): loads a
// MatrixSpec JSON, executes every (detector x dataset x regime x seed)
// cell with per-cell failure isolation, and writes one deterministic
// leaderboard artifact (JSON) plus an optional Markdown rendering.
//
//   matrix_runner --spec=bench/matrix_specs/ci.json --out=leaderboard.json
//       [--markdown=leaderboard.md] [--threads=N] [--no-timing] [--quiet]
//
// Exit code 0 means the matrix ran to completion — individual cell
// failures are data, recorded in the artifact, not process failures
// (that is the point of the isolation contract). Spec/IO problems
// exit 1.
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench_common.h"
#include "core/args.h"
#include "core/parallel.h"
#include "eval/matrix.h"

namespace vgod {
namespace {

int Fail(const Status& status) {
  std::fprintf(stderr, "matrix_runner: %s\n", status.ToString().c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: matrix_runner --spec=<spec.json> [--out=<path>] "
               "[--markdown=<path>] [--threads=N] [--no-timing] [--quiet]\n");
  return 1;
}

Status WriteFile(const std::string& path, const std::string& content) {
  std::ofstream file(path);
  if (!file) return Status::IoError("cannot open " + path + " for writing");
  file << content;
  file.flush();
  if (!file) return Status::IoError("short write to " + path);
  return Status::Ok();
}

int Run(int argc, char** argv) {
  Result<ArgParser> args = ArgParser::Parse(argc, argv);
  if (!args.ok()) return Fail(args.status());
  Status valid = args.value().Validate(
      {"spec", "out", "markdown", "threads", "no-timing", "quiet"});
  if (!valid.ok()) return Fail(valid);

  const std::string spec_path = args.value().GetString("spec", "");
  if (spec_path.empty()) return Usage();
  std::ifstream spec_file(spec_path);
  if (!spec_file) return Fail(Status::IoError("cannot read " + spec_path));
  std::stringstream buffer;
  buffer << spec_file.rdbuf();

  Result<eval::MatrixSpec> spec = eval::MatrixSpec::FromJson(buffer.str());
  if (!spec.ok()) return Fail(spec.status());

  const int64_t threads = args.value().GetInt("threads", 0);
  if (!args.value().status().ok()) return Fail(args.value().status());
  if (threads > 0) par::SetNumThreads(static_cast<int>(threads));

  bench::PrintBanner("Benchmark matrix",
                     "BOND-style leaderboard over " +
                         std::to_string(spec.value().NumCells()) + " cells (" +
                         spec_path + ")");

  const bool quiet = args.value().GetBool("quiet");
  eval::Leaderboard board = eval::RunMatrix(
      spec.value(),
      [&](const eval::CellResult& cell, int64_t done, int64_t total) {
        if (quiet) return;
        std::fprintf(stderr, "  [%3lld/%3lld] %-10s %-9s %-16s seed=%llu %s\n",
                     static_cast<long long>(done),
                     static_cast<long long>(total), cell.detector.c_str(),
                     cell.dataset.c_str(), cell.regime.c_str(),
                     static_cast<unsigned long long>(cell.seed),
                     cell.status.c_str());
        if (cell.status != "ok") {
          std::fprintf(stderr, "          %s\n", cell.error.c_str());
        }
      });

  // The manifest carries per-cell AUCs so check_bench.py band-checks the
  // matrix run like any other bench artifact.
  for (const eval::CellResult& cell : board.cells) {
    if (cell.status == "ok") {
      bench::RecordManifestResult(cell.dataset + "." + cell.regime,
                                  cell.detector, "auc", cell.auc);
    }
  }

  const bool include_timing = !args.value().GetBool("no-timing");
  const std::string out_path = args.value().GetString("out", "");
  if (!out_path.empty()) {
    Status wrote = WriteFile(out_path, board.ToJson(include_timing) + "\n");
    if (!wrote.ok()) return Fail(wrote);
    std::fprintf(stderr, "matrix_runner: leaderboard -> %s\n",
                 out_path.c_str());
  }
  const std::string markdown_path = args.value().GetString("markdown", "");
  if (!markdown_path.empty()) {
    Status wrote = WriteFile(markdown_path, board.ToMarkdown());
    if (!wrote.ok()) return Fail(wrote);
    std::fprintf(stderr, "matrix_runner: markdown -> %s\n",
                 markdown_path.c_str());
  }
  if (out_path.empty() && markdown_path.empty()) {
    std::fputs(board.ToMarkdown().c_str(), stdout);
  }
  return 0;
}

}  // namespace
}  // namespace vgod

int main(int argc, char** argv) { return vgod::Run(argc, argv); }
