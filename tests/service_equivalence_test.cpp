// Daemon-vs-standalone equivalence (ISSUE: fpoptd batching service).
//
// The service promises that a daemon response's `output` field is
// byte-identical to standalone `fpopt` stdout for the same inputs —
// regardless of thread count, shared-cache state (cold or warm, on or
// off), request interleaving, or concurrency — and that over-budget
// aborts make the same decision with the same message on both sides.
// These tests drive the real Service::handle_frame (the exact code both
// transports call) against run_cli over the golden workload corpus
// fp1..fp4.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "floorplan/serialize.h"
#include "io/cli.h"
#include "optimize/optimizer.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/server.h"
#include "service/service.h"
#include "telemetry/json.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

WorkloadConfig golden_config() {
  WorkloadConfig cfg;
  cfg.seed = 1;
  cfg.impls_per_module = 5;
  return cfg;
}

FloorplanTree corpus_tree(int fp) {
  switch (fp) {
    case 1:
      return make_fp1(golden_config());
    case 2:
      return make_fp2(golden_config());
    case 3:
      return make_fp3(golden_config());
    default:
      return make_fp4(golden_config());
  }
}

struct Workload {
  std::string topology;
  std::string library;
};

Workload corpus_text(int fp) {
  const FloorplanTree tree = corpus_tree(fp);
  return {to_topology_string(tree), to_module_library_string(tree.modules())};
}

/// Temp-file pair for the standalone CLI (which reads from disk).
struct CliFiles {
  std::string topo_path;
  std::string lib_path;

  CliFiles(const std::string& tag, const Workload& w) {
    const std::string base = testing::TempDir() +
                             testing::UnitTest::GetInstance()->current_test_info()->name() +
                             "_" + tag;
    topo_path = base + ".topo";
    lib_path = base + ".lib";
    std::ofstream(topo_path, std::ios::binary) << w.topology;
    std::ofstream(lib_path, std::ios::binary) << w.library;
  }
};

struct CliRun {
  int code = 0;
  std::string out;
  std::string err;
};

CliRun run_standalone(const Workload& w, const std::string& tag,
                      const std::vector<std::string>& flags) {
  CliFiles files(tag, w);
  std::vector<std::string> args = {flags.empty() ? "optimize" : flags[0], files.topo_path,
                                   files.lib_path};
  for (std::size_t i = 1; i < flags.size(); ++i) args.push_back(flags[i]);
  CliRun r;
  std::ostringstream out;
  std::ostringstream err;
  r.code = run_cli(args, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

/// Build one request frame. `options_json` is the raw members of the
/// options object ("" = none), e.g. "\"k1\":8,\"threads\":2".
std::string request_frame(const std::string& id, const std::string& command,
                          const Workload& w, const std::string& options_json,
                          bool report = false) {
  std::string frame = "{\"fpopt_request\":{\"schema_version\":1,\"id\":" +
                      telemetry::json_quote(id) +
                      ",\"command\":" + telemetry::json_quote(command) +
                      ",\"topology\":" + telemetry::json_quote(w.topology) +
                      ",\"library\":" + telemetry::json_quote(w.library);
  if (!options_json.empty()) frame += ",\"options\":{" + options_json + "}";
  if (report) frame += ",\"report\":true";
  frame += "}}";
  return frame;
}

/// Parse a response and return the validated fpopt_response object.
telemetry::JsonValue parse_response(const std::string& line) {
  const telemetry::JsonParseResult doc = telemetry::parse_json(line);
  EXPECT_TRUE(doc.value.has_value()) << doc.error << "\nline: " << line;
  if (!doc.value.has_value()) return {};
  EXPECT_TRUE(validate_service_response(*doc.value).empty())
      << validate_service_response(*doc.value).front();
  return *doc.value->find("fpopt_response");
}

std::string response_output(const std::string& line) {
  const telemetry::JsonValue r = parse_response(line);
  const telemetry::JsonValue* output = r.find("output");
  EXPECT_NE(output, nullptr) << line;
  return output == nullptr ? std::string() : output->string;
}

/// The deterministic counter sections of an embedded run report:
/// optimizer.* counters are byte-comparable between standalone and
/// daemon runs (cache.* legitimately differs — a warm shared cache
/// changes traffic, a session tracks no byte footprint; pool/phase
/// timing is scheduling-dependent by contract).
std::vector<std::pair<std::string, std::int64_t>> optimizer_counters(
    const telemetry::JsonValue& report) {
  std::vector<std::pair<std::string, std::int64_t>> out;
  const telemetry::JsonValue* counters = report.find("counters");
  if (counters == nullptr) return out;
  for (const auto& [name, value] : counters->object) {
    if (name.rfind("optimizer.", 0) == 0) out.emplace_back(name, value.integer);
  }
  return out;
}

TEST(ServiceEquivalence, MatchesStandaloneAcrossCorpusAndThreads) {
  ServiceConfig config;
  config.pool_workers = 4;
  Service service(config);
  for (int fp = 1; fp <= 4; ++fp) {
    const Workload w = corpus_text(fp);
    for (const int threads : {1, 2, 8}) {
      const std::string t = std::to_string(threads);
      const CliRun cli = run_standalone(
          w, "fp" + std::to_string(fp) + "_t" + t,
          {"optimize", "--k1", "8", "--k2", "10", "--threads", t});
      ASSERT_EQ(cli.code, 0) << cli.err;
      const std::string response = service.handle_frame(request_frame(
          "req", "optimize", w, "\"k1\":8,\"k2\":10,\"threads\":" + t));
      EXPECT_EQ(response_output(response), cli.out)
          << "fp" << fp << " threads=" << threads;
    }
  }
}

TEST(ServiceEquivalence, PlaceAndStatsMatchStandalone) {
  Service service(ServiceConfig{});
  for (int fp = 1; fp <= 2; ++fp) {
    const Workload w = corpus_text(fp);
    const CliRun stats = run_standalone(w, "stats" + std::to_string(fp), {"stats"});
    ASSERT_EQ(stats.code, 0) << stats.err;
    EXPECT_EQ(response_output(service.handle_frame(request_frame("s", "stats", w, ""))),
              stats.out);
    const CliRun place = run_standalone(
        w, "place" + std::to_string(fp), {"place", "--k1", "8", "--k2", "10"});
    ASSERT_EQ(place.code, 0) << place.err;
    EXPECT_EQ(response_output(service.handle_frame(
                  request_frame("p", "place", w, "\"k1\":8,\"k2\":10"))),
              place.out);
  }
}

TEST(ServiceEquivalence, WarmSharedCacheIsByteIdenticalToCold) {
  ServiceConfig config;
  config.pool_workers = 2;
  Service service(config);
  for (int fp = 1; fp <= 4; ++fp) {
    const Workload w = corpus_text(fp);
    const std::string frame = request_frame(
        "r", "optimize", w, "\"k1\":8,\"k2\":10,\"incremental\":true,\"threads\":2", true);
    const std::string cold = service.handle_frame(frame);
    const std::string warm = service.handle_frame(frame);
    // Bit-for-bit identical command output, cold vs warm.
    EXPECT_EQ(response_output(cold), response_output(warm)) << "fp" << fp;
    // And identical deterministic optimizer counters (peak_live included,
    // so the budget/OOM accounting provably cannot drift when served
    // from another request's published results).
    EXPECT_EQ(optimizer_counters(parse_response(cold)),
              optimizer_counters(parse_response(warm)))
        << "fp" << fp;
  }
  ASSERT_NE(service.cache(), nullptr);
  EXPECT_GT(service.cache()->stats().hits, 0u) << "warm runs never hit the shared cache";
}

TEST(ServiceEquivalence, SharedCacheOffMatchesSharedCacheOn) {
  ServiceConfig on;
  ServiceConfig off;
  off.shared_cache = false;
  Service with_cache(on);
  Service without_cache(off);
  for (int fp = 1; fp <= 2; ++fp) {
    const Workload w = corpus_text(fp);
    const std::string frame =
        request_frame("r", "optimize", w, "\"k1\":8,\"k2\":10,\"incremental\":true");
    const std::string warm_baseline = without_cache.handle_frame(frame);
    (void)with_cache.handle_frame(frame);  // populate
    EXPECT_EQ(response_output(with_cache.handle_frame(frame)),
              response_output(warm_baseline))
        << "fp" << fp;
  }
}

TEST(ServiceEquivalence, StandaloneReportCountersMatchDaemon) {
  Service service(ServiceConfig{});
  const Workload w = corpus_text(1);
  CliFiles files("report", w);
  const std::string json_path = files.topo_path + ".report.json";
  std::ostringstream out;
  std::ostringstream err;
  ASSERT_EQ(run_cli({"optimize", files.topo_path, files.lib_path, "--k1", "8", "--k2",
                     "10", "--stats-json", json_path},
                    out, err),
            0)
      << err.str();
  std::ifstream file(json_path, std::ios::binary);
  std::ostringstream buf;
  buf << file.rdbuf();
  const telemetry::JsonParseResult cli_doc = telemetry::parse_json(buf.str());
  ASSERT_TRUE(cli_doc.value.has_value());

  const std::string response = service.handle_frame(
      request_frame("r", "optimize", w, "\"k1\":8,\"k2\":10", true));
  const telemetry::JsonValue r = parse_response(response);
  const telemetry::JsonValue* daemon_report = r.find("fpopt_run_report");
  ASSERT_NE(daemon_report, nullptr);
  EXPECT_EQ(optimizer_counters(*daemon_report),
            optimizer_counters(*cli_doc.value->find("fpopt_run_report")));
}

TEST(ServiceEquivalence, BudgetAbortDecisionAndMessageMatch) {
  const FloorplanTree tree = corpus_tree(1);
  const Workload w = corpus_text(1);
  OptimizerOptions probe;
  probe.selection.k1 = 8;
  probe.selection.k2 = 10;
  probe.impl_budget = 0;
  const std::size_t peak = optimize_floorplan(tree, probe).stats.peak_live;
  ASSERT_GT(peak, 1u);

  ServiceConfig config;
  Service service(config);
  for (const bool fits : {true, false}) {
    const std::size_t budget = fits ? peak : peak - 1;
    const std::string b = std::to_string(budget);
    const CliRun cli = run_standalone(
        w, std::string("budget_") + (fits ? "ok" : "oom"),
        {"optimize", "--k1", "8", "--k2", "10", "--budget", b});
    // Twice against the same shared cache: the abort decision must be
    // byte-identical cold and warm (cache content cannot change it).
    for (const char* phase : {"cold", "warm"}) {
      const std::string response = service.handle_frame(request_frame(
          phase, "optimize", w, "\"k1\":8,\"k2\":10,\"budget\":" + b, true));
      const telemetry::JsonValue r = parse_response(response);
      if (fits) {
        ASSERT_EQ(cli.code, 0) << cli.err;
        EXPECT_EQ(r.find("status")->string, "ok") << phase;
        EXPECT_EQ(response_output(response), cli.out) << phase;
      } else {
        ASSERT_EQ(cli.code, 2);
        EXPECT_EQ(r.find("status")->string, "error") << phase;
        const telemetry::JsonValue* error = r.find("error");
        EXPECT_EQ(error->find("code")->string, "E_BUDGET") << phase;
        // The CLI's stderr carries the same message the daemon returns.
        EXPECT_NE(cli.err.find(error->find("message")->string), std::string::npos)
            << "cli: " << cli.err << "\ndaemon: " << error->find("message")->string;
        // The abort still reports, aborted=true, like `fpopt --stats`.
        const telemetry::JsonValue* report = r.find("fpopt_run_report");
        ASSERT_NE(report, nullptr) << phase;
        EXPECT_TRUE(report->find("aborted")->boolean) << phase;
      }
    }
  }
}

TEST(ServiceEquivalence, ArbitraryInterleavingsAreOrderIndependent) {
  // A fixed set of distinct requests, replayed in shuffled orders against
  // fresh shared-cache services: every request's response must be
  // byte-identical no matter what ran before it.
  std::vector<std::string> frames;
  for (int fp = 1; fp <= 3; ++fp) {
    const Workload w = corpus_text(fp);
    frames.push_back(request_frame("a" + std::to_string(fp), "optimize", w,
                                   "\"k1\":8,\"k2\":10,\"incremental\":true"));
    frames.push_back(request_frame("b" + std::to_string(fp), "optimize", w,
                                   "\"k1\":4,\"k2\":6,\"incremental\":true"));
    frames.push_back(request_frame("s" + std::to_string(fp), "stats", w, ""));
  }
  ServiceConfig config;
  config.pool_workers = 2;
  Service baseline(config);
  std::vector<std::string> expected;
  expected.reserve(frames.size());
  for (const std::string& f : frames) expected.push_back(baseline.handle_frame(f));

  std::vector<std::size_t> order(frames.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::mt19937 rng(7);
  for (int round = 0; round < 4; ++round) {
    std::shuffle(order.begin(), order.end(), rng);
    Service service(config);
    for (const std::size_t i : order) {
      EXPECT_EQ(service.handle_frame(frames[i]), expected[i])
          << "round " << round << " frame " << i;
    }
  }
}

TEST(ServiceEquivalence, ConcurrentRequestsMatchSerialBaseline) {
  // The TSan-guarded case: many client threads hammer one service (one
  // shared pool, one shared cache) with repeated requests; every response
  // must equal the serial baseline bit for bit.
  std::vector<std::string> frames;
  for (int fp = 1; fp <= 2; ++fp) {
    const Workload w = corpus_text(fp);
    frames.push_back(request_frame("c" + std::to_string(fp), "optimize", w,
                                   "\"k1\":8,\"k2\":10,\"incremental\":true,\"threads\":2"));
    frames.push_back(request_frame("d" + std::to_string(fp), "place", w,
                                   "\"k1\":6,\"k2\":8,\"incremental\":true"));
  }
  ServiceConfig config;
  config.pool_workers = 4;
  Service baseline(config);
  std::vector<std::string> expected;
  for (const std::string& f : frames) expected.push_back(baseline.handle_frame(f));

  Service service(config);
  constexpr std::size_t kClients = 8;
  constexpr std::size_t kRounds = 3;
  std::vector<std::vector<std::string>> got(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (std::size_t round = 0; round < kRounds; ++round) {
        const std::string& frame = frames[(c + round) % frames.size()];
        got[c].push_back(service.handle_frame(frame));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  for (std::size_t c = 0; c < kClients; ++c) {
    for (std::size_t round = 0; round < kRounds; ++round) {
      EXPECT_EQ(got[c][round], expected[(c + round) % frames.size()])
          << "client " << c << " round " << round;
    }
  }
}

TEST(ServiceEquivalence, DispatchGateNeverChangesResponseBytes) {
  // Traffic policy (max_inflight, priority, deadline_ms) steers WHEN a
  // request runs, never WHAT it answers: a gated service must produce
  // byte-identical responses to an ungated one, both for requests that
  // omit the new members entirely and for requests that carry them.
  const Workload w = corpus_text(1);
  const std::string plain =
      request_frame("p1", "optimize", w, "\"k1\":8,\"k2\":10");
  // The same request with traffic policy spliced in as top-level members.
  const auto with_policy = [&](const std::string& id, const std::string& extra) {
    std::string frame = request_frame(id, "optimize", w, "\"k1\":8,\"k2\":10");
    frame.insert(frame.size() - 2, "," + extra);
    return frame;
  };

  ServiceConfig ungated;
  ungated.pool_workers = 2;
  Service baseline(ungated);
  const std::string expected = baseline.handle_frame(plain);

  ServiceConfig gated_config = ungated;
  gated_config.max_inflight = 1;
  Service gated(gated_config);
  EXPECT_EQ(gated.handle_frame(plain), expected);
  // priority and a generous deadline never appear in the response; only
  // the id differs, and the ids here are chosen equal to the baseline's.
  EXPECT_EQ(gated.handle_frame(with_policy("p1", "\"priority\":2")), expected);
  EXPECT_EQ(gated.handle_frame(with_policy("p1", "\"priority\":0,\"deadline_ms\":60000")),
            expected);
  // And an ungated service accepts the members too, with the same bytes.
  EXPECT_EQ(baseline.handle_frame(with_policy("p1", "\"priority\":2,\"deadline_ms\":60000")),
            expected);
}

CliRun run_client_args(const std::vector<std::string>& args) {
  std::istringstream in;
  std::ostringstream out;
  std::ostringstream err;
  CliRun r;
  r.code = run_client(args, in, out, err);
  r.out = out.str();
  r.err = err.str();
  return r;
}

// `fpopt client` command mode end to end: the client builds the request
// frame from the CLI's flag surface, the daemon answers over a Unix
// socket, and the printed output is standalone `fpopt`'s stdout.
TEST(ClientCommandMode, OutputMatchesStandaloneFpopt) {
  const std::string socket = testing::TempDir() + "client_command_mode.sock";
  ServiceConfig config;
  config.pool_workers = 2;
  Service service(config);
  std::ostringstream server_err;
  std::thread server([&] { EXPECT_EQ(serve_unix(service, socket, server_err), 0); });
  int ping = 2;
  for (int attempt = 0; attempt < 250 && ping != 0; ++attempt) {
    ping = run_client_args({"--connect", socket, "ping"}).code;
    if (ping != 0) std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(ping, 0) << "the daemon never answered a ping";

  const std::vector<std::string> flags = {"--k1", "8", "--k2", "10", "--theta", "0.9",
                                          "--metric", "l2", "--incremental", "--cache-mb", "4"};
  for (int fp = 1; fp <= 4 && ping == 0; ++fp) {
    SCOPED_TRACE("fp" + std::to_string(fp));
    const CliFiles files("fp" + std::to_string(fp), corpus_text(fp));
    std::vector<std::string> cli_args = {"optimize", files.topo_path, files.lib_path};
    cli_args.insert(cli_args.end(), flags.begin(), flags.end());
    std::ostringstream cli_out;
    std::ostringstream cli_err;
    EXPECT_EQ(run_cli(cli_args, cli_out, cli_err), 0) << cli_err.str();

    std::vector<std::string> client_args = {"--connect", socket, "optimize", files.topo_path,
                                            files.lib_path};
    client_args.insert(client_args.end(), flags.begin(), flags.end());
    for (const char* extra : {"--id", "x", "--priority", "2", "--deadline-ms", "60000"}) {
      client_args.emplace_back(extra);
    }
    const CliRun client = run_client_args(client_args);
    EXPECT_EQ(client.code, 0) << client.err;
    EXPECT_EQ(client.err, "");
    EXPECT_EQ(client.out, cli_out.str());
  }
  EXPECT_EQ(run_client_args({"--connect", socket, "shutdown"}).code, ping == 0 ? 0 : 2);
  server.join();
  EXPECT_EQ(server_err.str(), "");
}

// No daemon runs here: a flag error must be reported before the client
// connects (a failed connect exits 2 as well, so the message decides).
TEST(ClientCommandMode, NonFiniteFlagValuesAreUsageErrors) {
  const std::string socket = testing::TempDir() + "no_daemon_here.sock";
  const CliFiles files("fp1", corpus_text(1));
  for (const char* value : {"nan", "inf", "-inf"}) {
    SCOPED_TRACE(value);
    const CliRun client = run_client_args(
        {"--connect", socket, "optimize", files.topo_path, files.lib_path, "--theta", value});
    EXPECT_EQ(client.code, 2);
    EXPECT_NE(client.err.find(std::string("bad value '") + value + "' for --theta"),
              std::string::npos)
        << client.err;
    EXPECT_EQ(client.out, "");
  }
}

}  // namespace
}  // namespace fpopt
