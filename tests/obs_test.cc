#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "obs/json.h"
#include "obs/memory.h"
#include "obs/metrics.h"
#include "obs/monitor.h"
#include "obs/profile.h"
#include "obs/trace.h"

namespace vgod::obs {
namespace {

// --- metrics ---

TEST(MetricsTest, CounterConcurrentAddsAreLossless) {
  Counter* counter =
      MetricsRegistry::Global().GetCounter("test.concurrent_counter");
  counter->Reset();
  constexpr int kThreads = 8;
  constexpr int kAddsPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([counter]() {
      for (int i = 0; i < kAddsPerThread; ++i) counter->Increment();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter->Value(), int64_t{kThreads} * kAddsPerThread);
}

TEST(MetricsTest, RegistryReturnsStablePointers) {
  Counter* a = MetricsRegistry::Global().GetCounter("test.stable");
  Counter* b = MetricsRegistry::Global().GetCounter("test.stable");
  EXPECT_EQ(a, b);
}

TEST(MetricsTest, MacroCachesOneCounterPerCallSite) {
  Counter* direct = MetricsRegistry::Global().GetCounter("test.macro_site");
  direct->Reset();
  for (int i = 0; i < 5; ++i) VGOD_COUNTER_ADD("test.macro_site", 2);
  EXPECT_EQ(direct->Value(), 10);
}

TEST(MetricsTest, HistogramBucketEdgesAreInclusiveUpperBounds) {
  Histogram hist({1.0, 10.0, 100.0});
  hist.Observe(0.5);    // bucket 0
  hist.Observe(1.0);    // bucket 0: edges are inclusive ("le")
  hist.Observe(1.0001); // bucket 1
  hist.Observe(10.0);   // bucket 1
  hist.Observe(99.9);   // bucket 2
  hist.Observe(100.0);  // bucket 2
  hist.Observe(100.5);  // overflow
  const std::vector<int64_t> counts = hist.BucketCounts();
  ASSERT_EQ(counts.size(), 4u);
  EXPECT_EQ(counts[0], 2);
  EXPECT_EQ(counts[1], 2);
  EXPECT_EQ(counts[2], 2);
  EXPECT_EQ(counts[3], 1);
  EXPECT_EQ(hist.Count(), 7);
  EXPECT_NEAR(hist.Sum(), 0.5 + 1.0 + 1.0001 + 10.0 + 99.9 + 100.0 + 100.5,
              1e-9);
}

TEST(MetricsTest, HistogramQuantileInterpolatesWithinBuckets) {
  Histogram empty({1.0, 2.0});
  EXPECT_EQ(HistogramQuantile(empty, 0.5), 0.0);

  Histogram hist({1.0, 10.0, 100.0});
  // 10 observations in (1, 10]: every quantile lands in that bucket and
  // interpolates across it linearly.
  for (int i = 0; i < 10; ++i) hist.Observe(5.0);
  EXPECT_NEAR(HistogramQuantile(hist, 0.5), 1.0 + 0.5 * 9.0, 1e-9);
  EXPECT_NEAR(HistogramQuantile(hist, 1.0), 10.0, 1e-9);
  EXPECT_LE(HistogramQuantile(hist, 0.1), HistogramQuantile(hist, 0.9));

  // Overflow observations clamp to the last finite bound.
  Histogram overflow({1.0});
  overflow.Observe(50.0);
  EXPECT_EQ(HistogramQuantile(overflow, 0.99), 1.0);
}

TEST(MetricsTest, HistogramConcurrentObserveCountsEveryValue) {
  Histogram hist(DefaultLatencyBounds());
  constexpr int kThreads = 4;
  constexpr int kObsPerThread = 5000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, t]() {
      for (int i = 0; i < kObsPerThread; ++i) {
        hist.Observe(1e-6 * (t + 1) * (i % 97 + 1));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(hist.Count(), int64_t{kThreads} * kObsPerThread);
  int64_t bucket_total = 0;
  for (int64_t c : hist.BucketCounts()) bucket_total += c;
  EXPECT_EQ(bucket_total, hist.Count());
}

TEST(MetricsTest, HistogramQuantileEdgeCases) {
  // No bounds at all: every quantile collapses to 0.
  Histogram unbounded({});
  EXPECT_EQ(HistogramQuantile(unbounded, 0.5), 0.0);
  unbounded.Observe(3.0);  // lands in the only (overflow) bucket
  EXPECT_EQ(HistogramQuantile(unbounded, 0.0), 0.0);
  EXPECT_EQ(HistogramQuantile(unbounded, 0.5), 0.0);
  EXPECT_EQ(HistogramQuantile(unbounded, 1.0), 0.0);

  // Empty histogram with bounds: still 0, not the first bound.
  Histogram empty({1.0, 2.0, 4.0});
  for (double q : {0.0, 0.5, 0.99, 1.0}) {
    EXPECT_EQ(HistogramQuantile(empty, q), 0.0) << "q=" << q;
  }

  // Single finite bucket: quantiles interpolate across [0, bound].
  Histogram single({8.0});
  for (int i = 0; i < 4; ++i) single.Observe(1.0);
  EXPECT_NEAR(HistogramQuantile(single, 0.5), 4.0, 1e-9);
  EXPECT_NEAR(HistogramQuantile(single, 1.0), 8.0, 1e-9);

  // All mass in the +Inf overflow bucket: clamps to the last finite
  // bound instead of inventing an infinite latency.
  Histogram overflow({1.0, 2.0});
  for (int i = 0; i < 10; ++i) overflow.Observe(100.0);
  EXPECT_EQ(HistogramQuantile(overflow, 0.01), 2.0);
  EXPECT_EQ(HistogramQuantile(overflow, 0.99), 2.0);

  // Out-of-range q is clamped, not UB.
  EXPECT_EQ(HistogramQuantile(overflow, -0.5), 2.0);
  EXPECT_EQ(HistogramQuantile(overflow, 1.5), 2.0);
}

TEST(MetricsTest, RegistryConcurrentWritersAndScrapers) {
  // Hammer the registry from many writer threads (mixing pre-existing and
  // freshly created names) while two scrapers render ToJson/ToPrometheus.
  // Correctness here is "no lost counts, no torn registry"; under TSan
  // (ctest -L threads) it is also a data-race gate for the pull-model
  // gauge publication that the scrape path performs.
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.mt.shared")->Reset();
  constexpr int kThreads = 6;
  constexpr int kIters = 2000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, t]() {
      for (int i = 0; i < kIters; ++i) {
        registry.GetCounter("test.mt.shared")->Increment();
        registry.GetGauge("test.mt.gauge." + std::to_string(t))
            ->Set(static_cast<double>(i));
        registry
            .GetHistogram("test.mt.hist." + std::to_string(t % 3),
                          DefaultLatencyBounds())
            ->Observe(1e-5 * (i % 13 + 1));
      }
    });
  }
  std::string json;
  std::string prom;
  std::thread json_scraper([&registry, &json]() {
    for (int i = 0; i < 20; ++i) json = registry.ToJson();
  });
  std::thread prom_scraper([&registry, &prom]() {
    for (int i = 0; i < 20; ++i) prom = registry.ToPrometheus();
  });
  for (std::thread& t : threads) t.join();
  json_scraper.join();
  prom_scraper.join();
  EXPECT_EQ(registry.GetCounter("test.mt.shared")->Value(),
            int64_t{kThreads} * kIters);
  // Scrapes taken mid-write must still be parseable JSON.
  json = registry.ToJson();
  EXPECT_TRUE(ParseJson(json).ok());
  EXPECT_NE(prom.find("# TYPE"), std::string::npos);
}

TEST(MetricsTest, RegistryJsonRoundTrips) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.json.counter")->Reset();
  registry.GetCounter("test.json.counter")->Add(42);
  registry.GetGauge("test.json.gauge")->Set(2.5);
  Histogram* hist = registry.GetHistogram("test.json.hist", {1.0, 2.0});
  hist->Reset();
  hist->Observe(0.5);
  hist->Observe(3.0);

  Result<JsonValue> parsed = ParseJson(registry.ToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.is_object());
  EXPECT_EQ(root.at("counters").at("test.json.counter").number(), 42.0);
  EXPECT_EQ(root.at("gauges").at("test.json.gauge").number(), 2.5);
  const JsonValue& hist_json = root.at("histograms").at("test.json.hist");
  ASSERT_TRUE(hist_json.is_object());
  EXPECT_EQ(hist_json.at("count").number(), 2.0);
  const JsonValue::Array& buckets = hist_json.at("buckets").array();
  ASSERT_EQ(buckets.size(), 3u);  // Two bounds + overflow.
  EXPECT_EQ(buckets[0].at("le").number(), 1.0);
  EXPECT_EQ(buckets[0].at("count").number(), 1.0);
  EXPECT_EQ(buckets[1].at("count").number(), 0.0);
  EXPECT_EQ(buckets[2].at("le").string_value(), "inf");
  EXPECT_EQ(buckets[2].at("count").number(), 1.0);
}

TEST(PrometheusTest, SanitizeMetricNameMapsToGrammar) {
  EXPECT_EQ(SanitizeMetricName("serve.requests.total"),
            "serve_requests_total");
  EXPECT_EQ(SanitizeMetricName("already_fine:name"), "already_fine:name");
  EXPECT_EQ(SanitizeMetricName("has spaces/and-dashes"),
            "has_spaces_and_dashes");
  EXPECT_EQ(SanitizeMetricName("9starts_with_digit"), "_9starts_with_digit");
  EXPECT_EQ(SanitizeMetricName(""), "_");
}

TEST(PrometheusTest, EscapeLabelValueEscapesSpecials) {
  EXPECT_EQ(EscapeLabelValue("plain"), "plain");
  EXPECT_EQ(EscapeLabelValue("back\\slash"), "back\\\\slash");
  EXPECT_EQ(EscapeLabelValue("quo\"te"), "quo\\\"te");
  EXPECT_EQ(EscapeLabelValue("new\nline"), "new\\nline");
}

// Pulls every exposition line that starts with `prefix` (sanitized name).
std::vector<std::string> LinesWithPrefix(const std::string& text,
                                         const std::string& prefix) {
  std::vector<std::string> out;
  std::istringstream stream(text);
  std::string line;
  while (std::getline(stream, line)) {
    if (line.rfind(prefix, 0) == 0) out.push_back(line);
  }
  return out;
}

TEST(PrometheusTest, CounterAndGaugeExposition) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom.counter")->Reset();
  registry.GetCounter("test.prom.counter")->Add(7);
  registry.GetGauge("test.prom.gauge")->Set(1.5);

  const std::string text = registry.ToPrometheus();
  EXPECT_NE(text.find("# HELP test_prom_counter vgod metric test.prom.counter"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_counter counter"), std::string::npos);
  EXPECT_NE(text.find("\ntest_prom_counter 7\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE test_prom_gauge gauge"), std::string::npos);
  EXPECT_NE(text.find("\ntest_prom_gauge 1.5\n"), std::string::npos);
}

TEST(PrometheusTest, HistogramBucketsAreCumulativeAndEndAtInf) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  Histogram* hist = registry.GetHistogram("test.prom.hist", {0.1, 1.0, 10.0});
  hist->Reset();
  hist->Observe(0.05);
  hist->Observe(0.5);
  hist->Observe(5.0);
  hist->Observe(50.0);  // Overflow.

  const std::string text = registry.ToPrometheus();
  const std::vector<std::string> buckets =
      LinesWithPrefix(text, "test_prom_hist_bucket");
  ASSERT_EQ(buckets.size(), 4u);  // Three bounds + +Inf.
  // Cumulative counts, monotonically non-decreasing, +Inf last.
  double prev = -1.0;
  for (const std::string& line : buckets) {
    const double count = std::stod(line.substr(line.rfind(' ')));
    EXPECT_GE(count, prev);
    prev = count;
  }
  EXPECT_NE(buckets.back().find("le=\"+Inf\""), std::string::npos);
  EXPECT_EQ(prev, 4.0);

  const std::vector<std::string> count_lines =
      LinesWithPrefix(text, "test_prom_hist_count");
  ASSERT_EQ(count_lines.size(), 1u);
  // The +Inf bucket and _count must agree — scrapers cross-check them.
  EXPECT_EQ(std::stod(count_lines[0].substr(count_lines[0].rfind(' '))),
            4.0);
  const std::vector<std::string> sum_lines =
      LinesWithPrefix(text, "test_prom_hist_sum");
  ASSERT_EQ(sum_lines.size(), 1u);
  EXPECT_NEAR(std::stod(sum_lines[0].substr(sum_lines[0].rfind(' '))),
              0.05 + 0.5 + 5.0 + 50.0, 1e-9);
}

TEST(PrometheusTest, EveryMetricHasHelpAndTypeLines) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.GetCounter("test.prom.help_check")->Increment();
  const std::string text = registry.ToPrometheus();
  std::istringstream stream(text);
  std::string line;
  std::string last_type_for;
  while (std::getline(stream, line)) {
    if (line.empty()) continue;
    if (line.rfind("# HELP ", 0) == 0 || line.rfind("# TYPE ", 0) == 0) {
      if (line.rfind("# TYPE ", 0) == 0) {
        last_type_for = line.substr(7, line.find(' ', 7) - 7);
      }
      continue;
    }
    // A sample line: its metric name must extend the last # TYPE name
    // (exactly, or with the _bucket/_sum/_count histogram suffixes).
    const size_t name_end = line.find_first_of(" {");
    ASSERT_NE(name_end, std::string::npos) << line;
    const std::string name = line.substr(0, name_end);
    EXPECT_EQ(name.rfind(last_type_for, 0), 0u) << line;
  }
}

// --- json ---

TEST(JsonTest, DumpParseRoundTrip) {
  JsonValue::Object obj;
  obj["name"] = JsonValue(std::string("va\"lue\nwith \\ escapes"));
  obj["pi"] = JsonValue(3.14159265358979);
  obj["neg"] = JsonValue(int64_t{-7});
  obj["flag"] = JsonValue(true);
  obj["nothing"] = JsonValue();
  JsonValue::Array arr;
  arr.push_back(JsonValue(1.0));
  arr.push_back(JsonValue(std::string("two")));
  obj["list"] = JsonValue(std::move(arr));
  const JsonValue original{JsonValue(std::move(obj))};

  Result<JsonValue> reparsed = ParseJson(original.Dump());
  ASSERT_TRUE(reparsed.ok()) << reparsed.status().ToString();
  EXPECT_EQ(reparsed.value().Dump(), original.Dump());
  EXPECT_EQ(reparsed.value().at("name").string_value(),
            "va\"lue\nwith \\ escapes");
  EXPECT_NEAR(reparsed.value().at("pi").number(), 3.14159265358979, 1e-15);
  EXPECT_TRUE(reparsed.value().at("flag").boolean());
  EXPECT_TRUE(reparsed.value().at("nothing").is_null());
  EXPECT_EQ(reparsed.value().at("list").array().size(), 2u);
}

TEST(JsonTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParseJson("{\"unterminated\": ").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("nope").ok());
}

TEST(JsonTest, NonFiniteNumbersSerializeAsZero) {
  std::string out;
  AppendJsonNumber(&out, std::nan(""));
  EXPECT_EQ(out, "0");
}

// --- trace ---

class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    was_enabled_ = TraceEnabled();
    ClearTrace();
    SetTraceEnabled(true);
  }
  void TearDown() override {
    ClearTrace();
    SetTraceEnabled(was_enabled_);
  }
  bool was_enabled_ = false;
};

TEST_F(TraceTest, NestedSpansRecordInnerFirstAndNestWithinOuter) {
  {
    VGOD_SCOPE("outer");
    VGOD_SCOPE("inner");
  }
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner closes (and records) before outer.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[1].name, "outer");
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  SetTraceEnabled(false);
  {
    VGOD_SCOPE("invisible");
  }
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST_F(TraceTest, TraceJsonIsChromeTraceEventFormat) {
  RecordCompleteEvent("phase/a", 10, 5);
  RecordCompleteEvent("phase/b", 20, 1);
  Result<JsonValue> parsed = ParseJson(TraceToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.Has("traceEvents"));
  const JsonValue::Array& events = root.at("traceEvents").array();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].at("name").string_value(), "phase/a");
  EXPECT_EQ(events[0].at("ph").string_value(), "X");
  EXPECT_EQ(events[0].at("ts").number(), 10.0);
  EXPECT_EQ(events[0].at("dur").number(), 5.0);
  EXPECT_TRUE(events[0].Has("pid"));
  EXPECT_TRUE(events[0].Has("tid"));
}

TEST_F(TraceTest, FlowEventsCarryPhaseAndId) {
  RecordFlowEvent("serve/request", 42, /*finish=*/false);
  RecordFlowEvent("serve/request", 42, /*finish=*/true);
  const std::vector<TraceEvent> events = SnapshotTraceEvents();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 's');
  EXPECT_EQ(events[1].ph, 'f');
  EXPECT_EQ(events[0].flow_id, 42u);
  EXPECT_EQ(events[1].flow_id, 42u);
  EXPECT_LE(events[0].ts_us, events[1].ts_us);

  Result<JsonValue> parsed = ParseJson(TraceToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue::Array& json = parsed.value().at("traceEvents").array();
  ASSERT_EQ(json.size(), 2u);
  EXPECT_EQ(json[0].at("ph").string_value(), "s");
  EXPECT_EQ(json[0].at("id").number(), 42.0);
  EXPECT_FALSE(json[0].Has("dur"));  // Flow events are instantaneous.
  EXPECT_EQ(json[1].at("ph").string_value(), "f");
  // Finishes bind to the enclosing slice so the arrow lands on the span
  // that consumed the request.
  EXPECT_EQ(json[1].at("bp").string_value(), "e");
}

TEST_F(TraceTest, FlowEventsAreNoOpsWhenDisabled) {
  SetTraceEnabled(false);
  RecordFlowEvent("serve/request", 7, false);
  EXPECT_EQ(TraceEventCount(), 0u);
}

TEST_F(TraceTest, WriteTraceProducesReadableFile) {
  RecordCompleteEvent("io/span", 0, 3);
  const std::string path = ::testing::TempDir() + "/vgod_trace_test.json";
  ASSERT_TRUE(WriteTrace(path).ok());
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::stringstream buffer;
  buffer << in.rdbuf();
  Result<JsonValue> parsed = ParseJson(buffer.str());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed.value().at("traceEvents").array().size(), 1u);
  std::remove(path.c_str());
}

// --- memory ---

TEST(MemoryTest, PeakTracksHighWaterMark) {
  ResetPeakTensorBytes();
  const int64_t base_live = LiveTensorBytes();
  OnTensorAlloc(1000);
  OnTensorAlloc(500);
  OnTensorFree(1000);
  OnTensorAlloc(100);
  EXPECT_EQ(LiveTensorBytes(), base_live + 600);
  EXPECT_EQ(PeakTensorBytes(), base_live + 1500);
  ResetPeakTensorBytes();
  EXPECT_EQ(PeakTensorBytes(), base_live + 600);
  OnTensorFree(500);
  OnTensorFree(100);
  EXPECT_EQ(LiveTensorBytes(), base_live);
}

// --- monitor ---

EpochRecord MakeRecord(int epoch) {
  EpochRecord record;
  record.detector = "TestDetector";
  record.epoch = epoch;
  record.planned_epochs = 3;
  record.loss = 0.5 / epoch;
  record.grad_norm = 1.25;
  record.seconds = 0.01;
  record.peak_tensor_bytes = 4096;
  return record;
}

TEST(MonitorTest, EpochRecordJsonRoundTrips) {
  Result<JsonValue> parsed = ParseJson(EpochRecordToJson(MakeRecord(2)));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  EXPECT_EQ(root.at("detector").string_value(), "TestDetector");
  EXPECT_EQ(root.at("epoch").number(), 2.0);
  EXPECT_EQ(root.at("planned_epochs").number(), 3.0);
  EXPECT_EQ(root.at("loss").number(), 0.25);
  EXPECT_EQ(root.at("grad_norm").number(), 1.25);
  EXPECT_EQ(root.at("peak_tensor_bytes").number(), 4096.0);
}

TEST(MonitorTest, JsonlStreamsOneParsableObjectPerEpoch) {
  const std::string path = ::testing::TempDir() + "/vgod_monitor_test.jsonl";
  {
    Result<std::unique_ptr<TrainingMonitor>> monitor =
        TrainingMonitor::WithJsonl(path);
    ASSERT_TRUE(monitor.ok()) << monitor.status().ToString();
    for (int epoch = 1; epoch <= 3; ++epoch) {
      monitor.value()->Record(MakeRecord(epoch));
    }
    EXPECT_EQ(monitor.value()->Records().size(), 3u);
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) {
    ++lines;
    Result<JsonValue> parsed = ParseJson(line);
    ASSERT_TRUE(parsed.ok()) << "line " << lines << ": " << line;
    EXPECT_EQ(parsed.value().at("epoch").number(), lines);
  }
  EXPECT_EQ(lines, 3);
  std::remove(path.c_str());
}

TEST(MonitorTest, WithJsonlRejectsUnwritablePath) {
  EXPECT_FALSE(TrainingMonitor::WithJsonl("/nonexistent-dir/x.jsonl").ok());
}

TEST(MonitorTest, TrainingRunFeedsSinkMonitorAndProbe) {
  TrainingMonitor monitor;
  std::vector<std::pair<int, size_t>> probed;
  monitor.SetScoreProbe([&probed](const std::string& detector, int epoch,
                                  const std::vector<double>& scores) {
    EXPECT_EQ(detector, "Probe");
    probed.emplace_back(epoch, scores.size());
  });
  std::vector<EpochRecord> sink = {MakeRecord(99)};  // Stale; must clear.
  {
    TrainingRun run("Probe", 2, &monitor, &sink);
    EXPECT_TRUE(run.wants_scores());
    for (int epoch = 1; epoch <= 2; ++epoch) {
      const EpochRecord record = run.EndEpoch(epoch, 0.5, 0.1);
      EXPECT_EQ(record.detector, "Probe");
      EXPECT_EQ(record.epoch, epoch);
      EXPECT_GE(record.seconds, 0.0);
      run.ProbeScores(epoch, {1.0, 2.0, 3.0});
    }
    EXPECT_GT(run.TotalSeconds(), 0.0);
  }
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink[0].epoch, 1);
  EXPECT_EQ(sink[1].epoch, 2);
  EXPECT_EQ(monitor.Records().size(), 2u);
  ASSERT_EQ(probed.size(), 2u);
  EXPECT_EQ(probed[0], (std::pair<int, size_t>{1, 3u}));
}

TEST(MonitorTest, TrainingRunEmitsFitAndEpochSpans) {
  const bool was_enabled = TraceEnabled();
  ClearTrace();
  SetTraceEnabled(true);
  {
    TrainingRun run("SpanCheck", 1, nullptr, nullptr);
    run.EndEpoch(1, 0.0, 0.0);
  }
  std::vector<std::string> names;
  for (const TraceEvent& event : SnapshotTraceEvents()) {
    names.push_back(event.name);
  }
  ClearTrace();
  SetTraceEnabled(was_enabled);
  ASSERT_EQ(names.size(), 2u);
  EXPECT_EQ(names[0], "SpanCheck/epoch");
  EXPECT_EQ(names[1], "SpanCheck/fit");
}

// --- profiler ---

class ProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetProfileEnabled(true);
    ClearProfile();
  }
  void TearDown() override {
    SetProfileEnabled(false);
    ClearProfile();
    SetTraceEnabled(false);
    ClearTrace();
  }

  static const ProfileNode* Child(const ProfileNode& node,
                                  const std::string& name) {
    for (const ProfileNode& child : node.children) {
      if (child.name == name) return &child;
    }
    return nullptr;
  }
};

// One scope, every combination of the two sinks: each enabled sink sees
// the region exactly once under the same name, a disabled one not at all.
TEST_F(ProfileTest, ScopeFeedsExactlyTheEnabledSinks) {
  struct Case {
    const char* name;
    bool profile;
    bool trace;
  };
  const Case cases[] = {{"test/sinks_both", true, true},
                        {"test/sinks_trace_only", false, true},
                        {"test/sinks_profile_only", true, false},
                        {"test/sinks_none", false, false}};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SetProfileEnabled(c.profile);
    SetTraceEnabled(c.trace);
    ClearTrace();
    { VGOD_SCOPE(c.name); }
    SetProfileEnabled(false);
    SetTraceEnabled(false);

    const std::vector<TraceEvent> events = SnapshotTraceEvents();
    if (c.trace) {
      ASSERT_EQ(events.size(), 1u);
      EXPECT_EQ(events[0].name, c.name);
      EXPECT_EQ(events[0].ph, 'X');
      EXPECT_GE(events[0].dur_us, 0);
    } else {
      EXPECT_TRUE(events.empty());
    }
    const ProfileNode root = SnapshotProfile();
    const ProfileNode* node = Child(root, c.name);
    if (c.profile) {
      ASSERT_NE(node, nullptr);
      EXPECT_EQ(node->calls, 1);
    } else {
      EXPECT_EQ(node, nullptr);
    }
  }
}

TEST_F(ProfileTest, DisabledScopesRecordNothing) {
  SetProfileEnabled(false);
  ClearProfile();
  {
    VGOD_SCOPE("test/ignored");
    ProfileAddBytes(1 << 20);
  }
  const ProfileNode root = SnapshotProfile();
  EXPECT_EQ(Child(root, "test/ignored"), nullptr);
}

TEST_F(ProfileTest, NestedScopesBuildTreeWithInvariant) {
  {
    VGOD_SCOPE("test/outer");
    for (int i = 0; i < 3; ++i) {
      VGOD_SCOPE("test/inner");
      ProfileAddBytes(100);
    }
  }
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* outer = Child(root, "test/outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, 1);
  const ProfileNode* inner = Child(*outer, "test/inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->calls, 3);
  EXPECT_EQ(inner->bytes, 300);
  // Tree invariant: children's inclusive time fits inside the parent's,
  // and exclusive is the exact remainder.
  EXPECT_LE(inner->inclusive_ns, outer->inclusive_ns);
  EXPECT_EQ(outer->exclusive_ns, outer->inclusive_ns - inner->inclusive_ns);
  EXPECT_GE(inner->inclusive_ns, 0);
}

TEST_F(ProfileTest, SiblingScopesStayDistinctAndNameSorted) {
  {
    VGOD_SCOPE("test/parent");
    { VGOD_SCOPE("test/b"); }
    { VGOD_SCOPE("test/a"); }
    { VGOD_SCOPE("test/b"); }
  }
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* parent = Child(root, "test/parent");
  ASSERT_NE(parent, nullptr);
  ASSERT_EQ(parent->children.size(), 2u);
  EXPECT_EQ(parent->children[0].name, "test/a");  // sorted, not visit order
  EXPECT_EQ(parent->children[1].name, "test/b");
  EXPECT_EQ(parent->children[0].calls, 1);
  EXPECT_EQ(parent->children[1].calls, 2);
}

TEST_F(ProfileTest, ClearProfileZeroesButKeepsShape) {
  { VGOD_SCOPE("test/cleared"); }
  ClearProfile();
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* node = Child(root, "test/cleared");
  ASSERT_NE(node, nullptr);  // structure survives for live scope pointers
  EXPECT_EQ(node->calls, 0);
  EXPECT_EQ(node->inclusive_ns, 0);
}

TEST_F(ProfileTest, FoldedExportEmitsStackLines) {
  {
    VGOD_SCOPE("test/root_scope");
    VGOD_SCOPE("test/leaf");
  }
  const std::string folded = ProfileToFolded();
  EXPECT_NE(folded.find("test/root_scope;test/leaf "), std::string::npos)
      << folded;
  // Every line is "frame(;frame)* <digits>".
  std::istringstream lines(folded);
  std::string line;
  while (std::getline(lines, line)) {
    const size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    const std::string count = line.substr(space + 1);
    EXPECT_FALSE(count.empty());
    EXPECT_EQ(count.find_first_not_of("0123456789"), std::string::npos)
        << line;
  }
}

TEST_F(ProfileTest, JsonExportParsesAndNestsChildren) {
  {
    VGOD_SCOPE("test/json_outer");
    VGOD_SCOPE("test/json_inner");
  }
  Result<JsonValue> parsed = ParseJson(ProfileToJson());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue& root = parsed.value();
  ASSERT_TRUE(root.at("children").is_array());
  bool found = false;
  for (const JsonValue& child : root.at("children").array()) {
    if (child.at("name").string_value() != "test/json_outer") continue;
    found = true;
    EXPECT_EQ(child.at("calls").number(), 1.0);
    ASSERT_EQ(child.at("children").array().size(), 1u);
    EXPECT_EQ(child.at("children").array()[0].at("name").string_value(),
              "test/json_inner");
  }
  EXPECT_TRUE(found);
}

TEST_F(ProfileTest, WriteProfilePicksFormatFromExtension) {
  { VGOD_SCOPE("test/written"); }
  const std::string json_path = "obs_profile_test.json";
  const std::string folded_path = "obs_profile_test.folded";
  ASSERT_TRUE(WriteProfile(json_path).ok());
  ASSERT_TRUE(WriteProfile(folded_path).ok());
  std::ifstream json_file(json_path);
  std::stringstream json_text;
  json_text << json_file.rdbuf();
  EXPECT_TRUE(ParseJson(json_text.str()).ok());
  std::ifstream folded_file(folded_path);
  std::stringstream folded_text;
  folded_text << folded_file.rdbuf();
  // ClearProfile keeps zeroed nodes from earlier tests, so the file can
  // hold other (count 0) stacks; ours must be among them.
  EXPECT_NE(folded_text.str().find("test/written "), std::string::npos)
      << folded_text.str();
  std::remove(json_path.c_str());
  std::remove(folded_path.c_str());
}

TEST_F(ProfileTest, MemoryPhaseAttributesPeakAndRestoresOuter) {
  const int64_t baseline = LiveTensorBytes();
  ResetPeakTensorBytes();
  OnTensorAlloc(1000);
  OnTensorFree(1000);  // outer peak: baseline + 1000
  {
    VGOD_MEMORY_PHASE("test/phase");
    OnTensorAlloc(400);
    OnTensorFree(400);
  }
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* phase = Child(root, "test/phase");
  ASSERT_NE(phase, nullptr);
  EXPECT_EQ(phase->peak_bytes, baseline + 400);
  // The enclosing high-water mark is restored, not clobbered by the
  // phase-local reset.
  EXPECT_GE(PeakTensorBytes(), baseline + 1000);
}

TEST_F(ProfileTest, ThreadMemoryWindowTracksPerThreadPeak) {
  BeginThreadMemoryWindow();
  OnTensorAlloc(500);
  OnTensorAlloc(300);
  OnTensorFree(500);
  OnTensorAlloc(100);
  EXPECT_EQ(ThreadMemoryWindowPeak(), 800);
  OnTensorFree(300);
  OnTensorFree(100);
  BeginThreadMemoryWindow();
  EXPECT_EQ(ThreadMemoryWindowPeak(), 0);
}

TEST_F(ProfileTest, ConcurrentScopesAndSnapshotsAreClean) {
  // Scoping threads race SnapshotProfile/ClearProfile calls and trace ring
  // snapshots; the test is primarily a TSan target (ctest -L threads) for
  // both sinks of a scope, and secondarily checks that a quiesced snapshot
  // sees every thread's tree and every thread's events.
  SetTraceEnabled(true);
  ClearTrace();
  constexpr int kThreads = 4;
  constexpr int kIters = 500;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([]() {
      for (int i = 0; i < kIters; ++i) {
        VGOD_SCOPE("test/mt_outer");
        VGOD_SCOPE("test/mt_inner");
        ProfileAddBytes(8);
      }
    });
  }
  std::thread snapshotter([]() {
    for (int i = 0; i < 50; ++i) {
      const ProfileNode root = SnapshotProfile();
      (void)root;
      const std::vector<TraceEvent> events = SnapshotTraceEvents();
      (void)events;
    }
  });
  for (std::thread& t : workers) t.join();
  snapshotter.join();
  SetTraceEnabled(false);
  const ProfileNode root = SnapshotProfile();
  const ProfileNode* outer = Child(root, "test/mt_outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->calls, int64_t{kThreads} * kIters);
  const ProfileNode* inner = Child(*outer, "test/mt_inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->bytes, int64_t{kThreads} * kIters * 8);
  EXPECT_LE(inner->inclusive_ns, outer->inclusive_ns);
  int64_t outer_events = 0;
  for (const TraceEvent& event : SnapshotTraceEvents()) {
    if (event.name == "test/mt_outer") ++outer_events;
  }
  EXPECT_EQ(outer_events, int64_t{kThreads} * kIters);
  EXPECT_EQ(TraceDroppedCount(), 0);
}

}  // namespace
}  // namespace vgod::obs
