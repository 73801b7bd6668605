// Tests for the event-tracing layer (src/telemetry/trace.h) and its
// offline analyses (src/telemetry/trace_analysis.h): document validity,
// the critical-path/makespan bound at several worker counts, the
// deterministic-identity contract across thread counts, bounded-memory
// drop counting, and the raw span/instant hooks.
//
// Every test compiles and passes in both telemetry modes: with
// FPOPT_TELEMETRY=OFF an armed session exports a valid, empty trace
// document, and the assertions branch on telemetry::kEnabled where the
// observable values differ.
#include "telemetry/trace.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "json_edit.h"
#include "optimize/optimizer.h"
#include "telemetry/trace_analysis.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

using telemetry::LoadedEvent;
using telemetry::LoadedTrace;
using telemetry::TraceCat;

OptimizerOptions fp3_options(std::size_t threads) {
  OptimizerOptions opts;
  opts.selection.k1 = 8;
  opts.selection.k2 = 10;
  opts.threads = threads;
  return opts;
}

FloorplanTree fp3_tree() {
  WorkloadConfig cfg;
  cfg.seed = 1;
  cfg.impls_per_module = 5;
  return make_fp3(cfg);
}

/// One traced optimize run of the fp3 golden workload; returns the
/// exported JSON and (optionally) the session's drop count.
std::string traced_fp3_run(std::size_t threads, telemetry::TraceOptions topts = {},
                           std::uint64_t* dropped = nullptr) {
  const FloorplanTree tree = fp3_tree();
  telemetry::TraceSession session(topts);
  session.set_meta("tool", "fpopt_tests");
  session.set_meta("threads", std::to_string(threads));
  telemetry::trace_thread_name("main");
  const OptimizeOutcome out = optimize_floorplan(tree, fp3_options(threads));
  EXPECT_FALSE(out.out_of_memory);
  if (dropped != nullptr) *dropped = session.dropped_events();
  return session.to_json();
}

LoadedTrace load_or_die(const std::string& json) {
  LoadedTrace trace;
  std::string error;
  EXPECT_TRUE(telemetry::load_trace(json, trace, error)) << error;
  return trace;
}

TEST(Trace, ExportIsValidTraceDocument) {
  const LoadedTrace trace = load_or_die(traced_fp3_run(0));
  bool saw_telemetry_flag = false;
  for (const auto& [key, value] : trace.other_data) {
    if (key == "telemetry") {
      saw_telemetry_flag = true;
      EXPECT_EQ(value, telemetry::kEnabled ? "on" : "off");
    }
  }
  EXPECT_TRUE(saw_telemetry_flag);
  if constexpr (telemetry::kEnabled) {
    std::size_t node_spans = 0;
    for (const LoadedEvent& e : trace.events) {
      if (e.cat == "node" && !e.instant) ++node_spans;
    }
    EXPECT_GT(node_spans, 0u) << "a traced optimize run must record node spans";
  } else {
    // Compiled-out hooks never fire: the document is valid but empty.
    EXPECT_TRUE(trace.events.empty());
  }
  EXPECT_EQ(trace.dropped_events, 0u);
}

TEST(Trace, CriticalPathBoundsMakespanAcrossThreadCounts) {
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                    std::size_t{8}}) {
    const LoadedTrace trace = load_or_die(traced_fp3_run(threads));
    const telemetry::CriticalPathResult cp = telemetry::critical_path(trace);
    if constexpr (telemetry::kEnabled) {
      ASSERT_TRUE(cp.ok) << "threads=" << threads << ": " << cp.error;
      EXPECT_FALSE(cp.chain.empty());
      EXPECT_GT(cp.path_us, 0.0);
      // cp(root) is a dependency chain of node evaluations, so no schedule
      // at any worker count can finish faster: path <= measured makespan
      // (tiny slack for microsecond rounding in the export).
      EXPECT_LE(cp.path_us, cp.makespan_us + 1.0)
          << "threads=" << threads << ": critical path exceeds the makespan";
    } else {
      EXPECT_FALSE(cp.ok) << "an empty trace has no node spans to walk";
    }
  }
}

TEST(Trace, DeterministicIdentitiesMatchAcrossThreadCounts) {
  const LoadedTrace serial = load_or_die(traced_fp3_run(0));
  const LoadedTrace parallel = load_or_die(traced_fp3_run(2));
  const telemetry::TraceDiff diff = telemetry::diff_traces(serial, parallel);
  EXPECT_TRUE(diff.identical) << (diff.differences.empty()
                                      ? std::string("no detail")
                                      : diff.differences.front());
  EXPECT_TRUE(diff.differences.empty());
}

TEST(Trace, FullRingDropsAndCountsInsteadOfGrowing) {
  telemetry::TraceOptions topts;
  topts.ring_capacity = 8;  // far below the ~400 events an fp3 run records
  std::uint64_t dropped = 0;
  const std::string json = traced_fp3_run(0, topts, &dropped);
  const LoadedTrace trace = load_or_die(json);  // overflow never corrupts the export
  if constexpr (telemetry::kEnabled) {
    EXPECT_GT(dropped, 0u);
    EXPECT_EQ(trace.dropped_events, dropped) << "the export reports the drop total";
    EXPECT_LE(trace.events.size(), 8u + 1u);  // per-ring cap (+ thread metadata excluded)
  } else {
    EXPECT_EQ(dropped, 0u);
    EXPECT_TRUE(trace.events.empty());
  }
}

TEST(Trace, SpanAndInstantHooksRecordDeterministicIdentity) {
  telemetry::TraceSession session;
  {
    telemetry::TraceSpan span(TraceCat::kNode, "unit_span", 7);
    span.set_children(1, 2);
    span.set_arg(3);
  }
  telemetry::trace_instant(TraceCat::kCache, "unit_instant", 9, 4);
  const LoadedTrace trace = load_or_die(session.to_json());
  if constexpr (telemetry::kEnabled) {
    ASSERT_EQ(trace.events.size(), 2u);
    const LoadedEvent& span = trace.events[0];
    EXPECT_EQ(span.cat, "node");
    EXPECT_EQ(span.name, "unit_span");
    EXPECT_FALSE(span.instant);
    EXPECT_EQ(span.id, 7u);
    EXPECT_EQ(span.arg, 3u);
    EXPECT_EQ(span.left, 1);
    EXPECT_EQ(span.right, 2);
    const LoadedEvent& instant = trace.events[1];
    EXPECT_EQ(instant.cat, "cache");
    EXPECT_EQ(instant.name, "unit_instant");
    EXPECT_TRUE(instant.instant);
    EXPECT_EQ(instant.id, 9u);
    EXPECT_EQ(instant.arg, 4u);
    EXPECT_EQ(telemetry::TraceSession::current(), &session);
  } else {
    EXPECT_TRUE(trace.events.empty());
    EXPECT_EQ(telemetry::TraceSession::current(), nullptr);
  }
}

TEST(TraceSchema, EveryRuleRejectsItsMutation) {
  // A real export, with one event of each phase the writer emits put in
  // front, so every row has an event to break in both telemetry modes.
  telemetry::JsonParseResult parsed = telemetry::parse_json(traced_fp3_run(0));
  ASSERT_TRUE(parsed.value.has_value()) << parsed.error;
  telemetry::JsonValue original = std::move(*parsed.value);
  const char* kLeading[] = {
      R"({"name": "thread_name", "ph": "M", "pid": 1, "tid": 0, "args": {"name": "main"}})",
      R"({"name": "eval_node", "cat": "node", "ph": "X", "pid": 1, "tid": 0, "ts": 1.5,)"
      R"( "dur": 2.25, "args": {"id": 3, "arg": 0, "left": 1, "right": 2}})",
      R"({"name": "steal", "cat": "pool", "ph": "i", "s": "t", "pid": 1, "tid": 0, "ts": 2,)"
      R"( "args": {"id": 0, "arg": 0}})",
  };
  for (auto& [key, value] : original.object) {
    if (key != "traceEvents") continue;
    for (std::size_t i = 3; i-- > 0;) {
      value.array.insert(value.array.begin(), *telemetry::parse_json(kLeading[i]).value);
    }
  }
  std::vector<std::string> errors;
  ASSERT_TRUE(telemetry::validate_trace_document(original, errors)) << errors.front();

  const test::JsonEdit kRows[] = {
      {"", "[]"},
      {"/otherData", nullptr},
      {"/otherData", "[]"},
      {"/otherData/tool", "1"},
      {"/otherData/dropped_events", nullptr},
      {"/otherData/dropped_events", "3"},
      {"/otherData/dropped_events", "\"many\""},
      {"/otherData/dropped_events", "\"99999999999999999999999\""},
      {"/otherData/dropped_events", "\"-1\""},
      {"/otherData/dropped_events", "\"\""},
      {"/traceEvents", nullptr},
      {"/traceEvents", "{}"},
      {"/traceEvents/0", "5"},
      {"/traceEvents/0/tid", nullptr},
      {"/traceEvents/0/pid", "\"1\""},
      {"/traceEvents/1/ph", nullptr},
      {"/traceEvents/1/ph", "\"B\""},
      {"/traceEvents/1/name", "1"},
      {"/traceEvents/1/pid", "-1"},
      {"/traceEvents/1/tid", "0.5"},
      {"/traceEvents/1/ts", "-1"},
      {"/traceEvents/1/ts", nullptr},
      {"/traceEvents/1/dur", nullptr},
      {"/traceEvents/1/dur", "\"long\""},
      {"/traceEvents/1/cat", "2"},
      {"/traceEvents/1/args", nullptr},
      {"/traceEvents/1/args/id", "-3"},
      {"/traceEvents/2/ts", "\"now\""},
      {"/traceEvents/2/cat", nullptr},
      {"/traceEvents/2/args/id", nullptr},
  };
  for (const test::JsonEdit& row : kRows) {
    SCOPED_TRACE(test::edit_label(row));
    telemetry::JsonValue doc = original;
    ASSERT_TRUE(test::apply_edit(doc, row));
    errors.clear();
    EXPECT_FALSE(telemetry::validate_trace_document(doc, errors));
    EXPECT_FALSE(errors.empty());
    LoadedTrace trace;
    std::string error;
    EXPECT_FALSE(telemetry::load_trace(doc.dump(), trace, error));
    EXPECT_FALSE(error.empty());
  }
}

}  // namespace
}  // namespace fpopt
