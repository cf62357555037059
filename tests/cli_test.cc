// End-to-end tests of the vgod_cli tool: generate -> detect -> eval over
// real process invocations. VGOD_CLI_PATH is injected by CMake as the
// built binary's location.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace vgod {
namespace {

std::string CliPath() { return VGOD_CLI_PATH; }

/// Runs a command, returning its exit status; stdout/stderr are captured
/// into `output`.
int RunCommand(const std::string& command, std::string* output) {
  const std::string log = ::testing::TempDir() + "/cli_out.txt";
  const int status =
      std::system((command + " > " + log + " 2>&1").c_str());
  std::ifstream in(log);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  *output = buffer.str();
  std::remove(log.c_str());
  return status;
}

TEST(CliTest, GenerateDetectEvalPipeline) {
  const std::string graph = ::testing::TempDir() + "/cli_graph.graph";
  const std::string scores = ::testing::TempDir() + "/cli_scores.tsv";
  std::string out;

  ASSERT_EQ(RunCommand(CliPath() + " generate --dataset=cora --scale=0.1" +
                           " --seed=5 --inject=standard --output=" + graph,
                       &out),
            0)
      << out;
  EXPECT_NE(out.find("labeled"), std::string::npos) << out;

  // Deg is training-free -> instant; the pipeline mechanics are the test.
  ASSERT_EQ(RunCommand(CliPath() + " detect --graph=" + graph +
                           " --detector=Deg --top=3 --output=" + scores,
                       &out),
            0)
      << out;
  EXPECT_NE(out.find("AUC against stored labels"), std::string::npos) << out;
  EXPECT_NE(out.find("top-3"), std::string::npos) << out;

  ASSERT_EQ(RunCommand(CliPath() + " eval --graph=" + graph +
                           " --scores=" + scores,
                       &out),
            0)
      << out;
  EXPECT_NE(out.find("AUC:"), std::string::npos) << out;

  std::remove(graph.c_str());
  std::remove(scores.c_str());
}

TEST(CliTest, TelemetryMetricsAndTraceArtifacts) {
  const std::string graph = ::testing::TempDir() + "/cli_obs_graph.graph";
  const std::string telemetry = ::testing::TempDir() + "/cli_obs.jsonl";
  const std::string metrics = ::testing::TempDir() + "/cli_obs_metrics.json";
  const std::string trace = ::testing::TempDir() + "/cli_obs_trace.json";
  std::string out;

  ASSERT_EQ(RunCommand(CliPath() + " generate --dataset=cora --scale=0.05" +
                           " --seed=5 --inject=standard --output=" + graph,
                       &out),
            0)
      << out;
  ASSERT_EQ(RunCommand(CliPath() + " detect --graph=" + graph +
                           " --detector=VBM --epoch-scale=0.05" +
                           " --telemetry_out=" + telemetry +
                           " --metrics_out=" + metrics +
                           " --trace_out=" + trace,
                       &out),
            0)
      << out;
  EXPECT_NE(out.find("epoch records to"), std::string::npos) << out;
  EXPECT_NE(out.find("wrote metrics to"), std::string::npos) << out;
  EXPECT_NE(out.find("trace events to"), std::string::npos) << out;

  // Telemetry: one JSON object per epoch with the expected keys.
  std::ifstream jsonl(telemetry);
  ASSERT_TRUE(jsonl.good());
  std::string line;
  int epochs = 0;
  while (std::getline(jsonl, line)) {
    ++epochs;
    EXPECT_NE(line.find("\"detector\":\"VBM\""), std::string::npos) << line;
    EXPECT_NE(line.find("\"loss\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"grad_norm\":"), std::string::npos) << line;
  }
  EXPECT_GT(epochs, 0);

  // Metrics: the matmul counters must have moved during training.
  std::ifstream metrics_in(metrics);
  ASSERT_TRUE(metrics_in.good());
  std::ostringstream metrics_buf;
  metrics_buf << metrics_in.rdbuf();
  EXPECT_NE(metrics_buf.str().find("tensor.matmul.calls"),
            std::string::npos);
  EXPECT_NE(metrics_buf.str().find("\"counters\""), std::string::npos);

  // Trace: Chrome trace_event envelope with at least the fit span.
  std::ifstream trace_in(trace);
  ASSERT_TRUE(trace_in.good());
  std::ostringstream trace_buf;
  trace_buf << trace_in.rdbuf();
  EXPECT_NE(trace_buf.str().find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(trace_buf.str().find("VBM/fit"), std::string::npos);
  EXPECT_NE(trace_buf.str().find("\"ph\":\"X\""), std::string::npos);

  std::remove(graph.c_str());
  std::remove(telemetry.c_str());
  std::remove(metrics.c_str());
  std::remove(trace.c_str());
}

TEST(CliTest, UnknownCommandFails) {
  std::string out;
  EXPECT_NE(RunCommand(CliPath() + " frobnicate", &out), 0);
  EXPECT_NE(out.find("usage:"), std::string::npos) << out;
}

TEST(CliTest, UnknownOptionFails) {
  std::string out;
  EXPECT_NE(RunCommand(CliPath() + " detect --graph=x --bogus=1", &out), 0);
  EXPECT_NE(out.find("unknown option"), std::string::npos) << out;
}

TEST(CliTest, UnknownDatasetFails) {
  std::string out;
  EXPECT_NE(RunCommand(CliPath() + " generate --dataset=mnist --output=/tmp/x",
                       &out),
            0);
  EXPECT_NE(out.find("NotFound"), std::string::npos) << out;
}

TEST(CliTest, MissingGraphFileFails) {
  std::string out;
  EXPECT_NE(
      RunCommand(CliPath() + " detect --graph=/nonexistent/g.graph", &out),
      0);
  EXPECT_NE(out.find("IoError"), std::string::npos) << out;
}

}  // namespace
}  // namespace vgod
