// Service-level observability (ISSUE: observability): the metrics
// registry must reconcile *exactly* with the Service's own stats after
// a shuffled mixed-priority workload, the `metrics`/`trace` admin verbs
// must answer validating documents, structured request logs must carry
// the server-assigned request id, and `fpopt client` must map server
// error envelopes to distinct exit codes.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/protocol.h"
#include "service/service.h"
#include "telemetry/json.h"
#include "telemetry/log.h"
#include "telemetry/schema.h"
#include "telemetry/telemetry.h"

namespace fpopt {
namespace {

constexpr const char* kTopology = "(V (H m0 m1) m2)";
constexpr const char* kLibrary = "m0 38x11 26x16\nm1 41x26 40x27\nm2 46x7 37x8\n";

std::string run_frame(const std::string& command, int priority,
                      const std::string& extra = "") {
  return "{\"fpopt_request\":{\"schema_version\":1,\"command\":" +
         telemetry::json_quote(command) +
         ",\"topology\":" + telemetry::json_quote(kTopology) +
         ",\"library\":" + telemetry::json_quote(kLibrary) +
         ",\"priority\":" + std::to_string(priority) + extra + "}}";
}

/// Parse + schema-validate one response line; returns the inner object.
telemetry::JsonValue checked_response(const std::string& line) {
  const telemetry::JsonParseResult doc = telemetry::parse_json(line);
  EXPECT_TRUE(doc.value.has_value()) << "unparseable response: " << line;
  if (!doc.value.has_value()) return {};
  const std::vector<std::string> violations = validate_service_response(*doc.value);
  EXPECT_TRUE(violations.empty()) << violations.front() << "\nline: " << line;
  return *doc.value->find("fpopt_response");
}

/// "ok" for a success response, the E_* code otherwise.
std::string outcome_of(const std::string& line) {
  const telemetry::JsonValue r = checked_response(line);
  const telemetry::JsonValue* status = r.find("status");
  if (status == nullptr) return "?";
  if (status->string == "ok") return "ok";
  return r.find("error")->find("code")->string;
}

/// The parsed "fpopt_metrics" block of the `metrics` verb's response.
telemetry::JsonValue metrics_snapshot(Service& service) {
  const telemetry::JsonValue r = checked_response(
      service.handle_frame("{\"fpopt_request\":{\"schema_version\":1,\"command\":\"metrics\"}}"));
  EXPECT_EQ(r.find("status")->string, "ok");
  const telemetry::JsonParseResult doc = telemetry::parse_json(r.find("output")->string);
  EXPECT_TRUE(doc.value.has_value()) << doc.error;
  EXPECT_EQ(telemetry::validate_embedded_metrics(*doc.value), std::vector<std::string>{});
  return *doc.value->find("fpopt_metrics");
}

/// Value of one counter series (label_value "" = the unlabeled series).
std::uint64_t counter_value(const telemetry::JsonValue& snapshot, const std::string& family,
                            const std::string& label_value = "") {
  for (const telemetry::JsonValue& fam : snapshot.find("counters")->array) {
    if (fam.find("name")->string != family) continue;
    for (const telemetry::JsonValue& series : fam.find("series")->array) {
      const telemetry::JsonValue* labels = series.find("labels");
      const bool unlabeled = labels->object.empty();
      if (label_value.empty() ? unlabeled
                              : (!unlabeled && labels->object[0].second.string == label_value)) {
        return static_cast<std::uint64_t>(series.find("value")->integer);
      }
    }
  }
  ADD_FAILURE() << "no counter series " << family << "{" << label_value << "}";
  return 0;
}

/// Total observation count of one histogram series.
std::uint64_t histogram_count(const telemetry::JsonValue& snapshot, const std::string& family,
                              const std::string& label_value = "") {
  for (const telemetry::JsonValue& fam : snapshot.find("histograms")->array) {
    if (fam.find("name")->string != family) continue;
    for (const telemetry::JsonValue& series : fam.find("series")->array) {
      const telemetry::JsonValue* labels = series.find("labels");
      const bool unlabeled = labels->object.empty();
      if (label_value.empty() ? unlabeled
                              : (!unlabeled && labels->object[0].second.string == label_value)) {
        return static_cast<std::uint64_t>(series.find("count")->integer);
      }
    }
  }
  ADD_FAILURE() << "no histogram series " << family << "{" << label_value << "}";
  return 0;
}

std::uint64_t when_on(std::uint64_t value) { return telemetry::kEnabled ? value : 0; }

TEST(ServiceMetrics, ReconcilesExactlyWithServiceStatsAfterMixedWorkload) {
  ServiceConfig config;
  config.max_frame_bytes = 4096;
  Service service(config);

  // One instance of every failure class plus ok runs, at mixed
  // priorities. E_DEADLINE is timing-dependent (deadline_ms 0 usually
  // expires on entry but may dispatch); reconciliation therefore counts
  // *observed* outcomes and demands the registry agree exactly.
  std::vector<std::string> frames;
  for (int p = 0; p < 3; ++p) {
    frames.push_back(run_frame("stats", p));
    frames.push_back(run_frame("optimize", p, ",\"options\":{\"k1\":4,\"k2\":4}"));
    frames.push_back(run_frame("optimize", p, ",\"options\":{\"budget\":1}"));  // E_BUDGET
    frames.push_back(run_frame("stats", p, ",\"deadline_ms\":0"));  // E_DEADLINE (usually)
  }
  frames.emplace_back("this is not json");                                      // E_PARSE
  frames.emplace_back("{\"fpopt_request\":{\"command\":\"stats\"}}");           // E_SCHEMA
  frames.emplace_back(
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"explode\"}}");    // E_COMMAND
  frames.push_back(run_frame("stats", 0, ",\"options\":{\"warp\":1}"));         // E_OPTION
  frames.emplace_back(
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"optimize\","
      "\"topology\":\"((((\",\"library\":\"\"}}");                              // E_INPUT
  frames.push_back(std::string(5000, 'x'));                                     // E_OVERSIZED

  constexpr int kThreads = 4;
  std::vector<std::map<std::string, std::uint64_t>> observed(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&service, &observed, &frames, t] {
      std::vector<std::string> shuffled = frames;
      std::mt19937 rng(static_cast<unsigned>(1234 + t));
      std::shuffle(shuffled.begin(), shuffled.end(), rng);
      for (const std::string& frame : shuffled) {
        ++observed[static_cast<std::size_t>(t)][outcome_of(service.handle_frame(frame))];
      }
    });
  }
  for (std::thread& w : workers) w.join();
  std::map<std::string, std::uint64_t> totals;
  for (const auto& per_thread : observed) {
    for (const auto& [code, n] : per_thread) totals[code] += n;
  }

  const ServiceStats stats = service.stats();
  const telemetry::JsonValue snapshot = metrics_snapshot(service);

  // Every outcome series equals its observed count — including the ones
  // this workload never produced (exact zero).
  std::uint64_t error_sum = 0;
  for (const char* code : {"ok", "E_PARSE", "E_SCHEMA", "E_COMMAND", "E_OPTION", "E_INPUT",
                           "E_BUDGET", "E_OVERSIZED", "E_OVERLOADED", "E_DEADLINE",
                           "E_INTERNAL"}) {
    EXPECT_EQ(counter_value(snapshot, "fpoptd_requests_total", code), when_on(totals[code]))
        << "outcome " << code;
    if (std::string(code) != "ok") error_sum += totals[code];
  }
  EXPECT_EQ(totals["ok"], stats.requests_ok);
  EXPECT_EQ(error_sum, stats.requests_error);
  EXPECT_EQ(totals["E_DEADLINE"], stats.requests_shed);
  EXPECT_EQ(counter_value(snapshot, "fpoptd_requests_shed_total"),
            when_on(stats.requests_shed));

  // Latency accounting: the end-to-end histogram saw every workload
  // frame (the metrics verb publishes its own sample only after it
  // rendered this snapshot, so it is excluded from both sides);
  // execute/queue-wait histograms saw exactly the dispatched requests.
  EXPECT_EQ(histogram_count(snapshot, "fpoptd_request_seconds"), when_on(stats.frames));
  const std::uint64_t dispatched = totals["ok"] + totals["E_INPUT"] + totals["E_BUDGET"];
  EXPECT_EQ(histogram_count(snapshot, "fpoptd_execute_seconds"), when_on(dispatched));
  std::uint64_t queue_wait_total = 0;
  for (const char* p : {"0", "1", "2"}) {
    queue_wait_total += histogram_count(snapshot, "fpoptd_queue_wait_seconds", p);
  }
  EXPECT_EQ(queue_wait_total, when_on(dispatched));
}

TEST(ServiceMetrics, VerbAnswersBothFormatsAndValidates) {
  Service service(ServiceConfig{});
  // JSON (the default format).
  const telemetry::JsonValue snapshot = metrics_snapshot(service);
  EXPECT_EQ(snapshot.find("schema_version")->integer, 1);
  EXPECT_EQ(snapshot.find("telemetry")->boolean, telemetry::kEnabled);

  // Prometheus text exposition.
  const telemetry::JsonValue r = checked_response(service.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"metrics\","
      "\"format\":\"prometheus\"}}"));
  EXPECT_EQ(r.find("status")->string, "ok");
  const std::string& text = r.find("output")->string;
  EXPECT_EQ(telemetry::validate_prometheus_text(text), std::vector<std::string>{});
  EXPECT_NE(text.find("# TYPE fpoptd_requests_total counter"), std::string::npos);
  EXPECT_NE(text.find("fpoptd_request_seconds_bucket"), std::string::npos);
}

TEST(ServiceMetrics, VerbFailsCleanlyWhenMetricsAreDisabled) {
  ServiceConfig config;
  config.metrics = false;
  Service service(config);
  EXPECT_EQ(outcome_of(service.handle_frame(
                "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"metrics\"}}")),
            "E_OPTION");
}

TEST(ServiceMetrics, ControlVerbMemberValidation) {
  Service service(ServiceConfig{});
  const struct {
    const char* frame;
    const char* code;
  } kCases[] = {
      // `format` belongs to the metrics verb only, with a closed vocabulary.
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"metrics\","
       "\"format\":\"xml\"}}",
       "E_SCHEMA"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"ping\","
       "\"format\":\"json\"}}",
       "E_SCHEMA"},
      // `pick` belongs to the trace verb only.
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"metrics\","
       "\"pick\":\"recent\"}}",
       "E_SCHEMA"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\","
       "\"pick\":\"worst\"}}",
       "E_SCHEMA"},
      // `trace` is a run-command flag, never valid on control verbs.
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"ping\",\"trace\":true}}",
       "E_SCHEMA"},
      {"{\"fpopt_request\":{\"schema_version\":1,\"command\":\"stats\","
       "\"topology\":\"(V m0 m1)\",\"library\":\"\",\"trace\":1}}",
       "E_SCHEMA"},  // wrong type
  };
  for (const auto& c : kCases) {
    EXPECT_EQ(outcome_of(service.handle_frame(c.frame)), c.code) << c.frame;
  }
}

TEST(ServiceTraceVerb, RequiresTracingToBeConfigured) {
  Service service(ServiceConfig{});  // trace_requests = 0
  EXPECT_EQ(outcome_of(service.handle_frame(
                "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\"}}")),
            "E_OPTION");
}

TEST(ServiceTraceVerb, ReturnsTheRetainedTraceForATracedRequest) {
  ServiceConfig config;
  config.trace_requests = 2;
  Service service(config);

  // Nothing retained yet: a clean E_OPTION, not an empty document.
  EXPECT_EQ(outcome_of(service.handle_frame(
                "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\"}}")),
            "E_OPTION");

  EXPECT_EQ(outcome_of(service.handle_frame(
                run_frame("optimize", 1, ",\"options\":{\"k1\":4,\"k2\":4},\"trace\":true"))),
            "ok");

  // `recent` (the default pick) returns the Chrome trace document.
  const telemetry::JsonValue r = checked_response(service.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\",\"pick\":\"recent\"}}"));
  ASSERT_EQ(r.find("status")->string, "ok");
  const telemetry::JsonParseResult trace_doc = telemetry::parse_json(r.find("output")->string);
  ASSERT_TRUE(trace_doc.value.has_value()) << trace_doc.error;
  ASSERT_NE(trace_doc.value->find("traceEvents"), nullptr);
  const telemetry::JsonValue* other = trace_doc.value->find("otherData");
  ASSERT_NE(other, nullptr);
  if (telemetry::kEnabled) {
    // request_id correlation: the session meta carries the server-assigned
    // id, and the request span's identity is that id.
    ASSERT_NE(other->find("request_id"), nullptr);
    EXPECT_FALSE(trace_doc.value->find("traceEvents")->array.empty());
  }

  // `list` indexes the retained ring.
  const telemetry::JsonValue list = checked_response(service.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\",\"pick\":\"list\"}}"));
  ASSERT_EQ(list.find("status")->string, "ok");
  const telemetry::JsonParseResult list_doc = telemetry::parse_json(list.find("output")->string);
  ASSERT_TRUE(list_doc.value.has_value()) << list_doc.error;
  const telemetry::JsonValue* index = list_doc.value->find("fpopt_request_traces");
  ASSERT_NE(index, nullptr);
  EXPECT_EQ(index->find("recent")->array.size(), 1u);
  ASSERT_NE(index->find("slowest"), nullptr);
  EXPECT_EQ(index->find("slowest")->find("command")->string, "optimize");

  // `slowest` returns a full document too.
  EXPECT_EQ(outcome_of(service.handle_frame(
                "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\","
                "\"pick\":\"slowest\"}}")),
            "ok");
}

TEST(ServiceTraceVerb, RetainedRingIsBoundedAndSamplingTraces) {
  ServiceConfig config;
  config.trace_requests = 2;
  config.trace_sample = 1;  // trace every run request
  Service service(config);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(outcome_of(service.handle_frame(run_frame("stats", 0))), "ok");
  }
  const telemetry::JsonValue list = checked_response(service.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"trace\",\"pick\":\"list\"}}"));
  ASSERT_EQ(list.find("status")->string, "ok");
  const telemetry::JsonParseResult doc = telemetry::parse_json(list.find("output")->string);
  ASSERT_TRUE(doc.value.has_value());
  EXPECT_EQ(doc.value->find("fpopt_request_traces")->find("recent")->array.size(), 2u);
}

TEST(ServiceTraceVerb, TracingNeverChangesResponseBytes) {
  // The byte-equivalence contract extends to traced requests: the same
  // run with and without capture answers identical bytes.
  ServiceConfig plain_config;
  Service plain(plain_config);
  ServiceConfig traced_config;
  traced_config.trace_requests = 4;
  Service traced(traced_config);
  const std::string frame =
      run_frame("optimize", 1, ",\"options\":{\"k1\":4,\"k2\":4},\"trace\":true");
  const std::string untraced_frame = run_frame("optimize", 1, ",\"options\":{\"k1\":4,\"k2\":4}");
  EXPECT_EQ(plain.handle_frame(untraced_frame), traced.handle_frame(frame));
}

TEST(StructuredRequestLog, CarriesServerAssignedRequestIds) {
  std::ostringstream out;
  telemetry::LogSink sink(out, telemetry::LogLevel::kInfo, /*stamp_time=*/false);
  ServiceConfig config;
  config.log = &sink;
  Service service(config);
  EXPECT_EQ(outcome_of(service.handle_frame(
                "{\"fpopt_request\":{\"schema_version\":1,\"command\":\"ping\"}}")),
            "ok");
  EXPECT_EQ(outcome_of(service.handle_frame(run_frame("stats", 2))), "ok");
  if (!telemetry::kEnabled) {
    EXPECT_EQ(out.str(), "");
    return;
  }
  std::istringstream lines(out.str());
  std::string line;
  std::vector<telemetry::JsonValue> events;
  while (std::getline(lines, line)) {
    const telemetry::JsonParseResult doc = telemetry::parse_json(line);
    ASSERT_TRUE(doc.value.has_value()) << line;
    if (doc.value->find("event")->string == "request") events.push_back(*doc.value);
  }
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].find("request_id")->integer, 1);
  EXPECT_EQ(events[0].find("command")->string, "ping");
  EXPECT_EQ(events[0].find("outcome")->string, "ok");
  EXPECT_EQ(events[1].find("request_id")->integer, 2);
  EXPECT_EQ(events[1].find("command")->string, "stats");
  EXPECT_EQ(events[1].find("priority")->integer, 2);
  ASSERT_NE(events[1].find("latency_ms"), nullptr);
  ASSERT_NE(events[1].find("execute_ms"), nullptr);
}

TEST(ClientExitCodes, DistinctPerErrorClass) {
  // The documented table (service/client.h): scripts branch on these.
  const struct {
    const char* code;
    int exit_code;
  } kTable[] = {
      {"E_INPUT", 3},      {"E_OPTION", 4},   {"E_BUDGET", 5},  {"E_DEADLINE", 6},
      {"E_OVERLOADED", 7}, {"E_OVERSIZED", 8}, {"E_SCHEMA", 9}, {"E_COMMAND", 10},
      {"E_PARSE", 11},     {"E_INTERNAL", 12},
  };
  std::vector<int> seen;
  for (const auto& row : kTable) {
    EXPECT_EQ(client_exit_code(row.code), row.exit_code) << row.code;
    seen.push_back(row.exit_code);
  }
  // All distinct, and disjoint from 0 (success) / 2 (usage/transport).
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 0), 0);
  EXPECT_EQ(std::count(seen.begin(), seen.end(), 2), 0);
  // Future error codes from a newer daemon degrade to E_INTERNAL's code.
  EXPECT_EQ(client_exit_code("E_SOMETHING_NEW"), 12);
}

}  // namespace
}  // namespace fpopt
