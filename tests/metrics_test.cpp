// Unit tests for the service-observability primitives (ISSUE:
// observability): the MetricsRegistry's registration/render contract,
// the log2 latency histogram's exact bucket boundaries, and the
// structured JSONL log's deterministic field order. Every suite passes
// in both telemetry modes — under FPOPT_TELEMETRY=OFF mutations are
// no-ops and snapshots render with all-zero values but full shape.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "json_edit.h"
#include "telemetry/json.h"
#include "telemetry/log.h"
#include "telemetry/metrics.h"
#include "telemetry/schema.h"
#include "telemetry/telemetry.h"

namespace fpopt::telemetry {
namespace {

/// Expected value of a counter-style assertion given the build mode:
/// all instrumentation reads render 0 when telemetry is compiled out.
std::uint64_t when_on(std::uint64_t value) { return kEnabled ? value : 0; }

std::vector<std::string> validate_json_snapshot(const std::string& snapshot) {
  const JsonParseResult doc = parse_json(snapshot);
  EXPECT_TRUE(doc.value.has_value()) << doc.error;
  if (!doc.value.has_value()) return {"unparseable"};
  return validate_embedded_metrics(*doc.value);
}

TEST(LatencyHistogram, ZeroLandsInTheFirstBucket) {
  Histogram h;
  h.observe_ns(0);
  const std::vector<std::uint64_t> buckets = h.bucket_counts();
  ASSERT_EQ(buckets.size(), Histogram::kBuckets + 1);
  EXPECT_EQ(buckets[0], when_on(1));
  EXPECT_EQ(h.count(), when_on(1));
}

TEST(LatencyHistogram, BucketUpperBoundsAreInclusive) {
  // Prometheus `le` semantics: a sample exactly on a bucket's upper
  // bound belongs to that bucket; one nanosecond more spills into the
  // next. Exercise every finite boundary.
  for (std::size_t i = 0; i < Histogram::kBuckets; ++i) {
    Histogram h;
    h.observe_ns(Histogram::upper_ns(i));
    EXPECT_EQ(h.bucket_counts()[i], when_on(1)) << "bound " << i;

    Histogram spill;
    spill.observe_ns(Histogram::upper_ns(i) + 1);
    const std::size_t next = i + 1;  // kBuckets = the +Inf overflow slot
    EXPECT_EQ(spill.bucket_counts()[next], when_on(1)) << "bound " << i << " + 1ns";
  }
}

TEST(LatencyHistogram, OverflowGoesToTheInfBucket) {
  Histogram h;
  h.observe_ns(~std::uint64_t{0});
  EXPECT_EQ(h.bucket_counts()[Histogram::kBuckets], when_on(1));
  EXPECT_EQ(h.count(), when_on(1));
}

TEST(LatencyHistogram, CountIsTheSumOfAllBuckets) {
  Histogram h;
  h.observe_ns(0);
  h.observe_ns(500);
  h.observe_ns(123456);
  h.observe_ns(~std::uint64_t{0});
  EXPECT_EQ(h.count(), when_on(4));
}

TEST(LatencyHistogram, NegativeSecondsClampToZero) {
  Histogram h;
  h.observe_seconds(-1.5);
  EXPECT_EQ(h.bucket_counts()[0], when_on(1));
  EXPECT_EQ(h.sum_seconds(), 0.0);
}

TEST(LatencyHistogram, SumAccumulatesObservedTime) {
  Histogram h;
  h.observe_ns(1'000'000'000);  // 1s
  h.observe_ns(500'000'000);    // 0.5s
  if (kEnabled) {
    EXPECT_NEAR(h.sum_seconds(), 1.5, 1e-9);
  } else {
    EXPECT_EQ(h.sum_seconds(), 0.0);
  }
}

TEST(LatencyHistogram, ConcurrentObserversLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.observe_ns(static_cast<std::uint64_t>(t) * 1000 + static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.count(), when_on(kThreads * kPerThread));
}

TEST(MetricsRegistry, RegistrationReturnsStableSeries) {
  MetricsRegistry registry;
  Counter& a = registry.counter("demo_total", "help");
  Counter& b = registry.counter("demo_total", "help");
  EXPECT_EQ(&a, &b);  // same family + labels = same series
  Counter& low = registry.counter("labeled_total", "help", "priority", "0");
  Counter& high = registry.counter("labeled_total", "help", "priority", "1");
  EXPECT_NE(&low, &high);
  EXPECT_EQ(&low, &registry.counter("labeled_total", "help", "priority", "0"));
}

TEST(MetricsRegistry, JsonSnapshotValidatesAndCarriesValues) {
  MetricsRegistry registry;
  Counter& requests = registry.counter("demo_requests_total", "requests", "outcome", "ok");
  registry.counter("demo_requests_total", "requests", "outcome", "E_PARSE");
  Gauge& depth = registry.gauge("demo_depth", "queue depth");
  Histogram& latency = registry.histogram("demo_seconds", "latency");
  registry.counter_fn("demo_derived_total", "callback counter", [] { return 7u; });
  registry.gauge_fn("demo_derived_gauge", "callback gauge", [] { return 2.5; });

  requests.add(3);
  depth.set(4);
  latency.observe_seconds(0.001);

  const std::string snapshot = registry.to_json();
  EXPECT_EQ(validate_json_snapshot(snapshot), std::vector<std::string>{});

  const JsonParseResult doc = parse_json(snapshot);
  ASSERT_TRUE(doc.value.has_value());
  const JsonValue& top = *doc.value->find("fpopt_metrics");
  EXPECT_EQ(top.find("telemetry")->boolean, kEnabled);
  // First counter family, first series = the "ok" outcome registered first.
  const JsonValue& first_counter = top.find("counters")->array[0];
  EXPECT_EQ(first_counter.find("name")->string, "demo_requests_total");
  const JsonValue& ok_series = first_counter.find("series")->array[0];
  EXPECT_EQ(ok_series.find("labels")->find("outcome")->string, "ok");
  EXPECT_EQ(ok_series.find("value")->integer, static_cast<std::int64_t>(when_on(3)));
  const JsonValue& derived = top.find("counters")->array[1].find("series")->array[0];
  EXPECT_EQ(derived.find("value")->integer, static_cast<std::int64_t>(when_on(7)));
}

TEST(MetricsRegistry, PrometheusExpositionValidates) {
  MetricsRegistry registry;
  Counter& total = registry.counter("demo_total", "a counter");
  Histogram& latency = registry.histogram("demo_seconds", "a histogram", "priority", "1");
  total.add(2);
  latency.observe_seconds(0.5);
  latency.observe_seconds(200.0);  // lands in +Inf

  const std::string text = registry.to_prometheus();
  EXPECT_EQ(validate_prometheus_text(text), std::vector<std::string>{});
  EXPECT_NE(text.find("# TYPE demo_total counter"), std::string::npos);
  EXPECT_NE(text.find("# TYPE demo_seconds histogram"), std::string::npos);
  EXPECT_NE(text.find("demo_seconds_bucket{priority=\"1\",le=\"+Inf\"}"), std::string::npos);
  if (kEnabled) {
    EXPECT_NE(text.find("demo_total 2"), std::string::npos);
    EXPECT_NE(text.find("demo_seconds_count{priority=\"1\"} 2"), std::string::npos);
  }
}

TEST(MetricsRegistry, EqualValuesRenderByteIdentically) {
  MetricsRegistry registry;
  registry.counter("demo_total", "a").inc();
  registry.histogram("demo_seconds", "b").observe_seconds(0.25);
  const std::string json_once = registry.to_json();
  const std::string prom_once = registry.to_prometheus();
  EXPECT_EQ(json_once, registry.to_json());
  EXPECT_EQ(prom_once, registry.to_prometheus());
}

TEST(MetricsRegistry, SnapshotKeepsFullShapeWhenTelemetryIsOff) {
  // The off-mode contract: same families, same series, zero values —
  // so dashboards and validators never see a shape change.
  MetricsRegistry registry;
  registry.counter("demo_total", "a").add(100);
  registry.gauge_fn("demo_gauge", "b", [] { return 9.0; });
  const std::string snapshot = registry.to_json();
  EXPECT_EQ(validate_json_snapshot(snapshot), std::vector<std::string>{});
  if (!kEnabled) {
    EXPECT_NE(snapshot.find("\"telemetry\":false"), std::string::npos);
    EXPECT_EQ(snapshot.find("100"), std::string::npos);
    EXPECT_EQ(snapshot.find("9"), std::string::npos);
  }
}

/// The fixed registry the pinned-bytes and negative tests share: one
/// counter, one gauge and one labelled histogram with no observations
/// (so its buckets read the same in both telemetry modes).
void fill_fixed_registry(MetricsRegistry& registry) {
  registry.counter("demo_total", "a counter").add(3);
  registry.gauge("demo_depth", "a gauge").set(2.5);
  registry.histogram("demo_seconds", "a histogram", "priority", "1");
}

TEST(MetricsRegistry, JsonSnapshotBytesArePinned) {
  MetricsRegistry registry;
  fill_fixed_registry(registry);
  const std::string expected =
      std::string(R"({"fpopt_metrics":{"schema_version":1,"telemetry":)") +
      (kEnabled ? "true" : "false") +
      R"(,"counters":[{"name":"demo_total","help":"a counter","series":[{"labels":{},"value":)" +
      (kEnabled ? "3" : "0") +
      R"(}]}],"gauges":[{"name":"demo_depth","help":"a gauge","series":[{"labels":{},"value":)" +
      (kEnabled ? "2.5" : "0") +
      R"(}]}],"histograms":[{"name":"demo_seconds","help":"a histogram","series":[)"
      R"({"labels":{"priority":"1"},"buckets":[)"
      R"({"le":1.0000000000000002e-06,"count":0},{"le":2.0000000000000003e-06,"count":0},)"
      R"({"le":4.000000000000001e-06,"count":0},{"le":8.000000000000001e-06,"count":0},)"
      R"({"le":1.6000000000000003e-05,"count":0},{"le":3.2000000000000005e-05,"count":0},)"
      R"({"le":6.400000000000001e-05,"count":0},{"le":0.00012800000000000002,"count":0},)"
      R"({"le":0.00025600000000000004,"count":0},{"le":0.0005120000000000001,"count":0},)"
      R"({"le":0.0010240000000000002,"count":0},{"le":0.0020480000000000003,"count":0},)"
      R"({"le":0.004096000000000001,"count":0},{"le":0.008192000000000001,"count":0},)"
      R"({"le":0.016384000000000003,"count":0},{"le":0.032768000000000005,"count":0},)"
      R"({"le":0.06553600000000001,"count":0},{"le":0.13107200000000002,"count":0},)"
      R"({"le":0.26214400000000004,"count":0},{"le":0.5242880000000001,"count":0},)"
      R"({"le":1.0485760000000002,"count":0},{"le":2.0971520000000003,"count":0},)"
      R"({"le":4.194304000000001,"count":0},{"le":8.388608000000001,"count":0},)"
      R"({"le":16.777216000000003,"count":0},{"le":33.554432000000006,"count":0},)"
      R"({"le":67.10886400000001,"count":0},{"le":134.21772800000002,"count":0},)"
      R"({"le":"+Inf","count":0}],"count":0,"sum_seconds":0}]}]}})"
      "\n";
  EXPECT_EQ(registry.to_json(), expected);
}

TEST(MetricsSchema, EveryRuleRejectsItsMutation) {
  MetricsRegistry registry;
  fill_fixed_registry(registry);
  const JsonParseResult parsed = parse_json(registry.to_json());
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  const JsonValue& original = *parsed.value;
  ASSERT_EQ(validate_embedded_metrics(original), std::vector<std::string>{});
  const test::JsonEdit kRows[] = {
      {"/fpopt_metrics", "[]"},
      {"/fpopt_metrics/schema_version", "2"},
      {"/fpopt_metrics/schema_version", "\"1\""},
      {"/fpopt_metrics/schema_version", nullptr},
      {"/fpopt_metrics/telemetry", "1"},
      {"/fpopt_metrics/telemetry", nullptr},
      {"/fpopt_metrics/counters", nullptr},
      {"/fpopt_metrics/gauges", "{}"},
      {"/fpopt_metrics/histograms", "\"none\""},
      {"/fpopt_metrics/extra", "1"},
      {"/fpopt_metrics/counters/0", "7"},
      {"/fpopt_metrics/counters/0/name", "\"9bad\""},
      {"/fpopt_metrics/counters/0/name", nullptr},
      {"/fpopt_metrics/counters/0/help", "\"\""},
      {"/fpopt_metrics/gauges/0/name", "\"demo_total\""},
      {"/fpopt_metrics/counters/0/series", "[]"},
      {"/fpopt_metrics/counters/0/series/0", "1"},
      {"/fpopt_metrics/counters/0/series/0/labels", nullptr},
      {"/fpopt_metrics/counters/0/series/1", R"({"labels":{},"value":1})"},
      {"/fpopt_metrics/gauges/0/series/0/value", "\"2.5\""},
      {"/fpopt_metrics/histograms/0/series/0/labels/priority", "1"},
      {"/fpopt_metrics/histograms/0/series/0/buckets", "[]"},
      {"/fpopt_metrics/histograms/0/series/0/sum_seconds", "-1"},
      {"/fpopt_metrics/histograms/0/series/0/buckets/0/count", "5"},
      {"/fpopt_metrics/histograms/0/series/0/buckets/0/count", "-1"},
      {"/fpopt_metrics/histograms/0/series/0/buckets/1/le", "0"},
      {"/fpopt_metrics/histograms/0/series/0/buckets/3/le", nullptr},
      {"/fpopt_metrics/histograms/0/series/0/buckets/28/le", "200"},
      {"/fpopt_metrics/histograms/0/series/0/buckets/29", R"({"le":300,"count":0})"},
      {"/fpopt_metrics/histograms/0/series/0/count", "3"},
  };
  for (const test::JsonEdit& row : kRows) {
    SCOPED_TRACE(test::edit_label(row));
    JsonValue doc = original;
    ASSERT_TRUE(test::apply_edit(doc, row));
    EXPECT_FALSE(validate_embedded_metrics(doc).empty());
    EXPECT_FALSE(validate_metrics_snapshot(*doc.find("fpopt_metrics")).empty());
  }
  JsonValue no_block;
  no_block.kind = JsonValue::Kind::Object;
  EXPECT_FALSE(validate_embedded_metrics(no_block).empty());
}

TEST(MetricsSchema, PrometheusRulesRejectTheirMutations) {
  MetricsRegistry registry;
  fill_fixed_registry(registry);
  const std::string original = registry.to_prometheus();
  ASSERT_EQ(validate_prometheus_text(original), std::vector<std::string>{});
  const std::string inf = "demo_seconds_bucket{priority=\"1\",le=\"+Inf\"} 0\n";
  const std::string count = "demo_seconds_count{priority=\"1\"} 0\n";
  const std::string gauge = std::string("\ndemo_depth ") + (kEnabled ? "2.5" : "0") + "\n";
  const struct {
    const char* what;
    std::string from;
    std::string to;
  } kRows[] = {
      {"unknown TYPE", "# TYPE demo_total counter", "# TYPE demo_total summary"},
      {"unknown directive", "# HELP demo_total", "# NOTE demo_total"},
      {"duplicate TYPE", "# TYPE demo_depth gauge\n",
       "# TYPE demo_depth gauge\n# TYPE demo_depth gauge\n"},
      {"sample without TYPE", "\ndemo_depth ", "\nother_depth "},
      {"sample without a value", gauge, "\ndemo_depth\n"},
      {"non-numeric value", gauge, "\ndemo_depth high\n"},
      {"bad metric name", gauge, "\n9demo 2.5\n"},
      {"unclosed label block", "_sum{priority=\"1\"}", "_sum{priority=\"1\""},
      {"bucket without le", inf, "demo_seconds_bucket{priority=\"1\"} 0\n"},
      {"buckets not cumulative", "\"} 0\ndemo_seconds_bucket", "\"} 5\ndemo_seconds_bucket"},
      {"le bounds not increasing", "le=\"", "le=\"9"},
      {"bucket after +Inf", inf, inf + "demo_seconds_bucket{priority=\"1\",le=\"200\"} 0\n"},
      {"duplicate +Inf", inf, inf + inf},
      {"no +Inf bucket", inf, ""},
      {"_count disagrees with +Inf", count, "demo_seconds_count{priority=\"1\"} 7\n"},
      {"no _count", count, ""},
      {"no samples", original, "# HELP demo_total a counter\n# TYPE demo_total counter\n"},
  };
  for (const auto& row : kRows) {
    SCOPED_TRACE(row.what);
    std::string text = original;
    const std::size_t at = text.find(row.from);
    ASSERT_NE(at, std::string::npos);
    text.replace(at, row.from.size(), row.to);
    EXPECT_FALSE(validate_prometheus_text(text).empty()) << text;
  }
}

TEST(StructuredLog, FieldsRenderInCallOrderDeterministically) {
  std::ostringstream out;
  LogSink sink(out, LogLevel::kDebug, /*stamp_time=*/false);
  LogEvent(&sink, LogLevel::kInfo, "request")
      .num("request_id", 7)
      .str("command", "optimize")
      .flag("ok", true)
      .dbl("latency_ms", 1.5)
      .num_signed("rc", -2);
  if (kEnabled) {
    EXPECT_EQ(out.str(),
              "{\"level\":\"info\",\"event\":\"request\",\"request_id\":7,"
              "\"command\":\"optimize\",\"ok\":true,\"latency_ms\":1.5,\"rc\":-2}\n");
    EXPECT_EQ(sink.lines(), 1u);
  } else {
    EXPECT_EQ(out.str(), "");
    EXPECT_EQ(sink.lines(), 0u);
  }
}

TEST(StructuredLog, LevelsBelowThresholdFormatNothing) {
  std::ostringstream out;
  LogSink sink(out, LogLevel::kWarn, /*stamp_time=*/false);
  LogEvent(&sink, LogLevel::kDebug, "noise").str("big", std::string(1 << 20, 'x'));
  LogEvent(&sink, LogLevel::kInfo, "still_noise");
  EXPECT_EQ(out.str(), "");
  LogEvent(&sink, LogLevel::kError, "kept");
  if (kEnabled) {
    EXPECT_EQ(out.str(), "{\"level\":\"error\",\"event\":\"kept\"}\n");
  }
}

TEST(StructuredLog, NullSinkIsSafe) {
  LogEvent(nullptr, LogLevel::kError, "nowhere").str("k", "v").num("n", 1);
  SUCCEED();
}

TEST(StructuredLog, EveryLineIsWellFormedJsonUnderConcurrency) {
  std::ostringstream out;
  LogSink sink(out, LogLevel::kInfo, /*stamp_time=*/false);
  constexpr int kThreads = 8;
  constexpr int kPerThread = 500;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&sink, t] {
      for (int i = 0; i < kPerThread; ++i) {
        LogEvent(&sink, LogLevel::kInfo, "tick")
            .num("thread", static_cast<std::uint64_t>(t))
            .num("i", static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (!kEnabled) {
    EXPECT_EQ(out.str(), "");
    return;
  }
  EXPECT_EQ(sink.lines(), static_cast<std::uint64_t>(kThreads * kPerThread));
  std::istringstream lines(out.str());
  std::string line;
  std::size_t parsed = 0;
  while (std::getline(lines, line)) {
    const JsonParseResult doc = parse_json(line);
    ASSERT_TRUE(doc.value.has_value()) << "interleaved line: " << line;
    ++parsed;
  }
  EXPECT_EQ(parsed, static_cast<std::size_t>(kThreads * kPerThread));
}

TEST(StructuredLog, LogLevelNamesRoundTrip) {
  for (const char* name : {"debug", "info", "warn", "error", "off"}) {
    LogLevel level = LogLevel::kInfo;
    EXPECT_TRUE(parse_log_level(name, level)) << name;
    EXPECT_STREQ(log_level_name(level), name);
  }
  LogLevel level = LogLevel::kInfo;
  EXPECT_FALSE(parse_log_level("verbose", level));
}

}  // namespace
}  // namespace fpopt::telemetry
