// Tests for the run-telemetry layer (src/telemetry/): counters, gauges,
// phase timers, the JSON document model, the RunReport document, and the
// schema validator behind tools/fpopt_report_check.
//
// Every test body compiles in both telemetry modes (FPOPT_TELEMETRY=ON and
// OFF): instrumentation statements are unconditional, and the assertions
// branch on telemetry::kEnabled where the observable values differ. The CI
// telemetry-off build leg runs this exact file, which is the "hooks still
// compile when disabled" proof the subsystem promises.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "io/run_report_build.h"
#include "json_edit.h"
#include "optimize/optimizer.h"
#include "runtime/thread_pool.h"
#include "telemetry/json.h"
#include "telemetry/run_report.h"
#include "telemetry/schema.h"
#include "telemetry/telemetry.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

using telemetry::JsonParseResult;
using telemetry::JsonValue;
using telemetry::PhaseSample;
using telemetry::RunReport;

// ---- counters / gauges -------------------------------------------------

TEST(Telemetry, CounterAccumulatesAndResets) {
  telemetry::Counter c;
  c.add(3);
  c.inc();
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(c.get(), 4u);
  } else {
    EXPECT_EQ(c.get(), 0u) << "disabled counters stay zero";
  }
  c.reset();
  EXPECT_EQ(c.get(), 0u);
}

TEST(Telemetry, CounterSumsAreOrderIndependent) {
  // The determinism contract: relaxed increments from many threads must
  // produce the exact sum (no lost updates), whatever the interleaving.
  telemetry::Counter c;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kPerThread; ++i) c.inc();
    });
  }
  for (std::thread& t : threads) t.join();
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(c.get(), static_cast<std::uint64_t>(kThreads) * kPerThread);
  } else {
    EXPECT_EQ(c.get(), 0u);
  }
}

TEST(Telemetry, GaugeSetAndFoldMax) {
  telemetry::Gauge g;
  g.set(2.5);
  g.fold_max(1.0);  // smaller: no effect
  g.fold_max(7.25);
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(g.get(), 7.25);
  } else {
    EXPECT_EQ(g.get(), 0.0);
  }
}

// ---- phase profile -----------------------------------------------------

TEST(Telemetry, PhaseProfileKeepsFirstUseOrderAndCounts) {
  telemetry::PhaseProfile profile;
  {
    const auto a = profile.scope("alpha");
  }
  {
    const auto b = profile.scope("beta");
    const auto nested = profile.scope("alpha");  // nesting counts both
  }
  profile.record("beta", 0.5);
  const std::vector<PhaseSample> samples = profile.samples();
  if constexpr (telemetry::kEnabled) {
    ASSERT_EQ(samples.size(), 2u);
    EXPECT_EQ(samples[0].name, "alpha");
    EXPECT_EQ(samples[0].count, 2u);
    EXPECT_EQ(samples[1].name, "beta");
    EXPECT_EQ(samples[1].count, 2u);
    EXPECT_GE(samples[1].seconds, 0.5);
  } else {
    EXPECT_TRUE(samples.empty()) << "disabled profiles record nothing";
  }
}

// ---- pool stats --------------------------------------------------------

TEST(Telemetry, PhaseProfileRecordsOnEarlyReturn) {
  telemetry::PhaseProfile profile;
  const auto body = [&profile](bool bail) {
    const auto scope = profile.scope("guarded");
    if (bail) return 1;  // scope must still record on this path
    return 0;
  };
  EXPECT_EQ(body(true), 1);
  EXPECT_EQ(body(false), 0);
  const std::vector<PhaseSample> samples = profile.samples();
  if constexpr (telemetry::kEnabled) {
    ASSERT_EQ(samples.size(), 1u);
    EXPECT_EQ(samples[0].name, std::string("guarded"));
    EXPECT_EQ(samples[0].count, 2u) << "both the early and normal return record";
  } else {
    EXPECT_TRUE(samples.empty());
  }
}

TEST(Telemetry, PhaseProfileRecordsNestedScopesDuringUnwinding) {
  // A throw from the innermost scope unwinds through every open scope;
  // each must record exactly once, and the outer phase's time must cover
  // the inner's (scopes close inner-first).
  telemetry::PhaseProfile profile;
  EXPECT_THROW(
      {
        const auto outer = profile.scope("outer");
        const auto inner = profile.scope("inner");
        throw std::runtime_error("boom");
      },
      std::runtime_error);
  const std::vector<PhaseSample> samples = profile.samples();
  if constexpr (telemetry::kEnabled) {
    ASSERT_EQ(samples.size(), 2u);
    // First-use order is record order, and scopes record at destruction,
    // so the inner scope lands first.
    EXPECT_EQ(samples[0].name, std::string("inner"));
    EXPECT_EQ(samples[0].count, 1u);
    EXPECT_EQ(samples[1].name, std::string("outer"));
    EXPECT_EQ(samples[1].count, 1u);
    EXPECT_GE(samples[1].seconds, samples[0].seconds);
  } else {
    EXPECT_TRUE(samples.empty());
  }
}

TEST(Telemetry, PoolStatsTotalsSumWorkers) {
  telemetry::PoolStats stats;
  stats.workers.push_back({10, 2, 3, 0.25});
  stats.workers.push_back({5, 1, 0, 0.75});
  EXPECT_EQ(stats.total_tasks(), 15u);
  EXPECT_EQ(stats.total_steals(), 3u);
  EXPECT_DOUBLE_EQ(stats.total_idle_seconds(), 1.0);
}

TEST(Telemetry, ThreadPoolCountsEveryTaskExactlyOnce) {
  constexpr std::uint64_t kTasks = 500;
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (std::uint64_t i = 0; i < kTasks; ++i) {
    group.run([] {});
  }
  group.wait();
  const telemetry::PoolStats stats = pool.stats();
  // Two workers plus the synthetic external-thread slot.
  ASSERT_EQ(stats.workers.size(), 3u);
  if constexpr (telemetry::kEnabled) {
    EXPECT_EQ(stats.total_tasks(), kTasks)
        << "workers + the helping coordinator must account for every task";
  } else {
    EXPECT_EQ(stats.total_tasks(), 0u);
  }
}

// ---- JSON model --------------------------------------------------------

TEST(TelemetryJson, ParsesAndRedumpsDeterministically) {
  const std::string doc =
      R"({"a": 1, "b": [true, false, null, "x\ny"], "c": {"n": -2.5}})";
  const JsonParseResult parsed = telemetry::parse_json(doc);
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  const JsonValue& v = *parsed.value;
  ASSERT_TRUE(v.is_object());
  const JsonValue* a = v.find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_TRUE(a->is_integer);
  EXPECT_EQ(a->integer, 1);
  const JsonValue* c = v.find("c");
  ASSERT_NE(c, nullptr);
  const JsonValue* n = c->find("n");
  ASSERT_NE(n, nullptr);
  EXPECT_FALSE(n->is_integer);
  EXPECT_EQ(n->number, -2.5);
  // dump() preserves insertion order, so dump(parse(dump(x))) is stable.
  const std::string once = v.dump();
  const JsonParseResult again = telemetry::parse_json(once);
  ASSERT_TRUE(again.value.has_value()) << again.error;
  EXPECT_EQ(again.value->dump(), once);
}

TEST(TelemetryJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(telemetry::parse_json("").value.has_value());
  EXPECT_FALSE(telemetry::parse_json("{\"a\": }").value.has_value());
  EXPECT_FALSE(telemetry::parse_json("[1, 2").value.has_value());
  EXPECT_FALSE(telemetry::parse_json("tru").value.has_value());
  EXPECT_FALSE(telemetry::parse_json("{} trailing").value.has_value())
      << "trailing garbage must be rejected";
  // Depth cap: 100 nested arrays exceeds the parser's recursion limit.
  std::string deep(100, '[');
  deep += std::string(100, ']');
  EXPECT_FALSE(telemetry::parse_json(deep).value.has_value());
}

TEST(TelemetryJson, NestingDepthGuardBoundary) {
  // The parser caps recursion at 64 levels: exactly 64 parses, 65 fails.
  const auto nested = [](std::size_t levels) {
    return std::string(levels, '[') + std::string(levels, ']');
  };
  EXPECT_TRUE(telemetry::parse_json(nested(64)).value.has_value());
  const JsonParseResult too_deep = telemetry::parse_json(nested(65));
  EXPECT_FALSE(too_deep.value.has_value());
  EXPECT_NE(too_deep.error.find("nesting too deep"), std::string::npos);
}

TEST(TelemetryJson, ParsesUnicodeEscapes) {
  const JsonParseResult parsed = telemetry::parse_json(
      "[\"\\u0041\", \"caf\\u00e9\", \"\\u20ac\", \"\\ud83d\\ude00\"]");
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  const auto& arr = parsed.value->array;
  ASSERT_EQ(arr.size(), 4u);
  EXPECT_EQ(arr[0].string, "A");
  EXPECT_EQ(arr[1].string, "caf\xc3\xa9");          // U+00E9, 2-byte UTF-8
  EXPECT_EQ(arr[2].string, "\xe2\x82\xac");         // U+20AC, 3-byte UTF-8
  EXPECT_EQ(arr[3].string, "\xf0\x9f\x98\x80");     // U+1F600 via surrogate pair
}

TEST(TelemetryJson, RejectsMalformedUnicodeEscapes) {
  // Lone surrogates, a high surrogate followed by a non-surrogate, bad hex
  // digits and truncated escapes are all malformed.
  EXPECT_FALSE(telemetry::parse_json(R"(["\ud800"])").value.has_value());
  EXPECT_FALSE(telemetry::parse_json(R"(["\udc00"])").value.has_value());
  EXPECT_FALSE(telemetry::parse_json(R"(["\ud800A"])").value.has_value());
  EXPECT_FALSE(telemetry::parse_json(R"(["\uZZZZ"])").value.has_value());
  EXPECT_FALSE(telemetry::parse_json(R"(["\u12)").value.has_value());
}

TEST(TelemetryJson, QuoteEscapesNonAsciiAsUnicode) {
  // json_quote emits pure ASCII: BMP code points as one \uXXXX, higher
  // planes as a surrogate pair, and malformed UTF-8 as U+FFFD.
  EXPECT_EQ(telemetry::json_quote("caf\xc3\xa9"), "\"caf\\u00e9\"");
  EXPECT_EQ(telemetry::json_quote("\xe2\x82\xac"), "\"\\u20ac\"");
  EXPECT_EQ(telemetry::json_quote("\xf0\x9f\x98\x80"), "\"\\ud83d\\ude00\"");
  EXPECT_EQ(telemetry::json_quote("a\x80z"), "\"a\\ufffdz\"");
}

TEST(TelemetryJson, UnicodeEscapesRoundTripThroughQuoteAndParse) {
  const std::string original = "caf\xc3\xa9 \xe2\x82\xac \xf0\x9f\x98\x80";
  const JsonParseResult parsed = telemetry::parse_json(telemetry::json_quote(original));
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  EXPECT_EQ(parsed.value->string, original);
}

TEST(TelemetryJson, QuoteAndNumberHelpers) {
  EXPECT_EQ(telemetry::json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  // json_number is shortest-round-trip: integers print without exponent
  // noise and parse back exactly.
  const std::string tok = telemetry::json_number(0.1);
  const JsonParseResult parsed = telemetry::parse_json(tok);
  ASSERT_TRUE(parsed.value.has_value());
  EXPECT_EQ(parsed.value->number, 0.1);
}

// ---- run report document ----------------------------------------------

RunReport sample_report() {
  RunReport report("fpopt_tests", "sample");
  report.add_config("k1", "8");
  report.add_counter("optimizer.total_generated", 123);
  report.add_counter("cache.hits", 0);
  report.add_gauge("optimizer.prune_ratio", 0.5);
  report.add_phase({"evaluate", 1, 0.125});
  telemetry::PoolStats pool;
  pool.workers.push_back({7, 1, 2, 0.01});
  report.set_pool(pool);
  report.set_seconds(0.25);
  return report;
}

TEST(RunReportTest, JsonValidatesAgainstSchemaPrettyAndCompact) {
  const RunReport report = sample_report();
  for (const bool pretty : {true, false}) {
    const JsonParseResult parsed = telemetry::parse_json(report.to_json(pretty));
    ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
    const std::vector<std::string> errors = telemetry::validate_run_report(*parsed.value);
    EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());
    const JsonValue* inner = parsed.value->find("fpopt_run_report");
    ASSERT_NE(inner, nullptr);
    const JsonValue* telemetry_flag = inner->find("telemetry");
    ASSERT_NE(telemetry_flag, nullptr);
    EXPECT_EQ(telemetry_flag->boolean, telemetry::kEnabled);
  }
}

TEST(RunReportTest, AbortedFlagRoundTrips) {
  RunReport report("fpopt_tests", "abort-sample");
  report.set_aborted(true);
  const JsonParseResult parsed = telemetry::parse_json(report.to_json(true));
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  const JsonValue* aborted = parsed.value->find("fpopt_run_report")->find("aborted");
  ASSERT_NE(aborted, nullptr);
  EXPECT_TRUE(aborted->boolean);
}

TEST(RunReportTest, TableListsCountersAndGauges) {
  const std::string table = sample_report().to_table();
  EXPECT_NE(table.find("optimizer.total_generated"), std::string::npos) << table;
  EXPECT_NE(table.find("123"), std::string::npos);
  EXPECT_NE(table.find("optimizer.prune_ratio"), std::string::npos);
}

// ---- schema validator negatives ---------------------------------------

JsonValue parsed_sample() {
  const JsonParseResult parsed = telemetry::parse_json(sample_report().to_json(false));
  EXPECT_TRUE(parsed.value.has_value()) << parsed.error;
  return *parsed.value;
}

JsonValue& inner_of(JsonValue& doc) {
  return doc.object.front().second;  // the "fpopt_run_report" value
}

TEST(ReportSchema, RejectsWrongSchemaVersion) {
  JsonValue doc = parsed_sample();
  for (auto& [key, value] : inner_of(doc).object) {
    if (key == "schema_version") value.integer = 99;
  }
  EXPECT_FALSE(telemetry::validate_run_report(doc).empty());
}

TEST(ReportSchema, RejectsMissingRequiredKey) {
  JsonValue doc = parsed_sample();
  auto& members = inner_of(doc).object;
  members.erase(members.begin());  // drop schema_version entirely
  const std::vector<std::string> errors = telemetry::validate_run_report(doc);
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors.front().find("schema_version"), std::string::npos);
}

TEST(ReportSchema, RejectsNegativeAndNonDottedCounters) {
  JsonValue doc = parsed_sample();
  for (auto& [key, value] : inner_of(doc).object) {
    if (key != "counters") continue;
    value.object.front().second.integer = -1;
    value.object.front().second.number = -1;
    value.object.push_back({"undotted", value.object.back().second});
  }
  const std::vector<std::string> errors = telemetry::validate_run_report(doc);
  EXPECT_EQ(errors.size(), 2u) << (errors.empty() ? "" : errors.front());
}

TEST(ReportSchema, EmbeddedSearchFindsNestedReportsAndFlagsAbsence) {
  // BENCH_*.json shape: the report sits deep inside a workloads array.
  JsonValue report_doc = parsed_sample();
  JsonValue workloads;
  workloads.kind = JsonValue::Kind::Array;
  workloads.array.push_back(report_doc);
  JsonValue doc;
  doc.kind = JsonValue::Kind::Object;
  doc.object.push_back({"workloads", workloads});
  EXPECT_TRUE(telemetry::validate_embedded_run_reports(doc).empty());

  JsonValue empty;
  empty.kind = JsonValue::Kind::Object;
  const std::vector<std::string> errors = telemetry::validate_embedded_run_reports(empty);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors.front().find("no fpopt_run_report"), std::string::npos);
}

TEST(ReportSchema, EveryRuleRejectsItsMutation) {
  const JsonValue original = parsed_sample();
  ASSERT_TRUE(telemetry::validate_run_report(original).empty());
  const test::JsonEdit kRows[] = {
      {"/fpopt_run_report", "[]"},
      {"/fpopt_run_report/schema_version", "2"},
      {"/fpopt_run_report/schema_version", "\"1\""},
      {"/fpopt_run_report/schema_version", nullptr},
      {"/fpopt_run_report/tool", "\"\""},
      {"/fpopt_run_report/tool", "7"},
      {"/fpopt_run_report/tool", nullptr},
      {"/fpopt_run_report/command", "\"\""},
      {"/fpopt_run_report/command", nullptr},
      {"/fpopt_run_report/aborted", "0"},
      {"/fpopt_run_report/aborted", nullptr},
      {"/fpopt_run_report/telemetry", "\"on\""},
      {"/fpopt_run_report/telemetry", nullptr},
      {"/fpopt_run_report/config", "[]"},
      {"/fpopt_run_report/config/k1", "8"},
      {"/fpopt_run_report/counters", "[]"},
      {"/fpopt_run_report/counters/cache.hits", "-1"},
      {"/fpopt_run_report/counters/optimizer.total_generated", "1.5"},
      {"/fpopt_run_report/counters/undotted", "1"},
      {"/fpopt_run_report/gauges", "0.5"},
      {"/fpopt_run_report/gauges/optimizer.prune_ratio", "\"0.5\""},
      {"/fpopt_run_report/phases", "{}"},
      {"/fpopt_run_report/phases/0", "1"},
      {"/fpopt_run_report/phases/0/name", "3"},
      {"/fpopt_run_report/phases/0/name", nullptr},
      {"/fpopt_run_report/phases/0/count", "-1"},
      {"/fpopt_run_report/phases/0/seconds", "\"fast\""},
      {"/fpopt_run_report/pool", "[]"},
      {"/fpopt_run_report/pool/workers", nullptr},
      {"/fpopt_run_report/pool/workers", "{}"},
      {"/fpopt_run_report/pool/workers/0", "\"w\""},
      {"/fpopt_run_report/pool/workers/0/steals", "-1"},
      {"/fpopt_run_report/pool/workers/0/tasks_run", nullptr},
      {"/fpopt_run_report/pool/workers/0/idle_seconds", "true"},
      {"/fpopt_run_report/seconds", nullptr},
      {"/fpopt_run_report/seconds", "\"0.25\""},
  };
  for (const test::JsonEdit& row : kRows) {
    SCOPED_TRACE(test::edit_label(row));
    JsonValue doc = original;
    ASSERT_TRUE(test::apply_edit(doc, row));
    EXPECT_FALSE(telemetry::validate_run_report(doc).empty());
    EXPECT_FALSE(telemetry::validate_embedded_run_reports(doc).empty());
  }
}

TEST(RunReportTest, CompactJsonBytesArePinned) {
  const std::string expected =
      std::string(R"({"fpopt_run_report":{"schema_version":1,"tool":"fpopt_tests",)"
                  R"("command":"sample","aborted":false,"telemetry":)") +
      (telemetry::kEnabled ? "true" : "false") +
      R"(,"config":{"k1":"8"},"counters":{"optimizer.total_generated":123,"cache.hits":0},)"
      R"("gauges":{"optimizer.prune_ratio":0.5},)"
      R"("phases":[{"name":"evaluate","count":1,"seconds":0.125}],)"
      R"("pool":{"workers":[{"tasks_run":7,"steals":1,"shared_pops":2,"idle_seconds":0.01}]},)"
      R"("seconds":0.25}})";
  EXPECT_EQ(sample_report().to_json(false), expected);
}

// ---- report builders over a real run ----------------------------------

TEST(RunReportTest, OptimizerReportIsSchemaValidAndSerialDeterministic) {
  WorkloadConfig cfg;
  cfg.seed = 3;
  cfg.impls_per_module = 5;
  const FloorplanTree tree = make_fp1(cfg);
  OptimizerOptions opts;
  opts.selection.k1 = 8;
  opts.selection.k2 = 12;

  const auto build = [&] {
    const OptimizeOutcome out = optimize_floorplan(tree, opts);
    RunReport report("fpopt_tests", "optimize");
    report_optimizer(report, out);
    return report;
  };
  const RunReport first = build();
  const JsonParseResult parsed = telemetry::parse_json(first.to_json(true));
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  const std::vector<std::string> errors = telemetry::validate_run_report(*parsed.value);
  EXPECT_TRUE(errors.empty()) << (errors.empty() ? "" : errors.front());

  // Serial determinism: the counter section is value-identical across
  // repeat runs (timings/phases are exempt, so compare counters only).
  EXPECT_EQ(first.counters(), build().counters());
  // OptimizerStats ride the deterministic profile plumbing, not the atomic
  // telemetry counters, so they are populated in both telemetry modes.
  bool saw_nodes = false;
  for (const auto& [name, value] : first.counters()) {
    if (name == "optimizer.nodes_evaluated") {
      saw_nodes = true;
      EXPECT_GT(value, 0u);
    }
  }
  EXPECT_TRUE(saw_nodes);
}

}  // namespace
}  // namespace fpopt
