// service_mixed: an in-process Service (fpoptd's engine) with one pool
// worker and the default shared cache, driven through handle_frame by two
// closed-loop client threads (fpoptd's callers wait for each reply). The
// socket transports are left out: each connection costs a server thread.
//
// Traffic, drawn from the workload seed:
//   hot   `optimize` requests with incremental:true on paper FP1/FP2 cases
//         1-2, primed in set-up, so they are shared-cache reads;
//   cold  1 in 20 requests: an FP1 library never seen before (N=8), so a
//         miss, a publish and, once the 256 MiB budget fills, evictions.
//         A share of 0.05 keeps the cold cluster away from both reported
//         percentiles (1 - q = 0.5 and 0.01);
//   pool  1 in 4 requests of either kind sets threads:1 and runs on the
//         shared pool.
// Two clients plus one pool worker keep at most three threads busy.
#include <algorithm>
#include <cstdio>
#include <sstream>
#include <thread>

#include "floorplan/serialize.h"
#include "harness.h"
#include "io/command.h"
#include "service/protocol.h"
#include "service/service.h"
#include "telemetry/json.h"
#include "workload/floorplans.h"
#include "workload/rng.h"

namespace perfbench {

namespace {

using namespace fpopt;

constexpr unsigned kClients = 2;
constexpr double kRequestsPerS = 940;   // both clients, measured (README.md "Op counts")
constexpr std::uint32_t kColdOneIn = 20;
constexpr std::uint32_t kThreadsOneIn = 4;
constexpr std::size_t kHotCases = 4;  // FP1 cases 1-2, FP2 cases 1-2
constexpr std::size_t kWindowOps = 1000;  // latencies, both clients: about half a second

std::string request_frame(std::size_t id, const InputTexts& texts, bool threads1) {
  std::string f = "{\"fpopt_request\":{\"schema_version\":1,\"id\":" + std::to_string(id) +
                  ",\"command\":\"optimize\",\"topology\":" + telemetry::json_quote(texts.topology) +
                  ",\"library\":" + telemetry::json_quote(texts.library) +
                  ",\"options\":{\"incremental\":true";
  if (threads1) f += ",\"threads\":1";
  return f + "}}}";
}

/// Distinct frames (hot ones first: case h at 2h, its threads:1 twin at
/// 2h + 1) and each client's request sequence as frame indices.
struct Traffic {
  std::vector<std::string> frames;
  std::vector<std::vector<std::size_t>> schedule;
};

Traffic make_traffic(std::uint64_t seed, std::size_t per_client) {
  Traffic t;
  for (std::size_t h = 0; h < kHotCases; ++h) {
    const InputTexts texts = seeded_inputs(
        make_paper_floorplan(1 + static_cast<int>(h / 2), 1 + static_cast<int>(h % 2)), seed);
    t.frames.push_back(request_frame(t.frames.size(), texts, false));
    t.frames.push_back(request_frame(t.frames.size(), texts, true));
  }
  Pcg32 rng(seed, 0x636c69656e7473ULL);
  t.schedule.resize(kClients);
  for (auto& requests : t.schedule) {
    for (std::size_t i = 0; i < per_client; ++i) {
      const bool threads1 = rng.below(kThreadsOneIn) == 0;
      if (rng.below(kColdOneIn) == 0) {
        WorkloadConfig cfg;
        cfg.impls_per_module = 8;
        cfg.seed = rng.next() | (std::uint64_t{rng.next()} << 32);
        requests.push_back(t.frames.size());
        t.frames.push_back(
            request_frame(t.frames.size(), seeded_inputs(make_fp1(cfg), cfg.seed), threads1));
      } else {
        requests.push_back(2 * rng.below(kHotCases) + (threads1 ? 1 : 0));
      }
    }
  }
  return t;
}

/// The standalone answer to a frame: the response a fresh, cacheless
/// execute_command produces, and its output text.
struct Expected {
  std::string response;
  std::string output;
};

Expected standalone(const std::string& frame) {
  ServiceRequest req;
  ServiceError error;
  if (!decode_request(frame, req, error)) return {};
  try {
    const FloorplanTree tree = parse_floorplan(req.topology, parse_module_library(req.library));
    std::ostringstream out;
    execute_command(req.spec, tree, CommandEnv{}, out, nullptr);
    return {build_ok_response(req.id_json, out.str(), ""), out.str()};
  } catch (...) {
    return {};
  }
}

/// The optimizer counters an `optimize` output prints.
OptimizerStats stats_from_output(const std::string& output) {
  OptimizerStats s;
  const auto field = [&](const char* label, const char* format, std::size_t* a, std::size_t* b) {
    const std::size_t at = output.find(label);
    if (at == std::string::npos) return;
    unsigned long long x = 0;
    unsigned long long y = 0;
    if (std::sscanf(output.c_str() + at, format, &x, &y) >= 1) {
      *a = x;
      if (b != nullptr) *b = y;
    }
  };
  field("peak stored:", "peak stored: %llu", &s.peak_stored, nullptr);
  field("generated:", "generated: %llu", &s.total_generated, nullptr);
  field("R_Selection:", "R_Selection: %llu calls, removed %llu", &s.r_selection_calls,
        &s.r_selected_away);
  field("L_Selection:", "L_Selection: %llu calls, removed %llu", &s.l_selection_calls,
        &s.l_selected_away);
  return s;
}

/// Execute and queue-wait totals from the `metrics` verb's histograms.
struct ServiceTotals {
  double execute_s = 0;
  double queue_wait_s = 0;
};

ServiceTotals service_totals(Service& svc) {
  ServiceTotals totals;
  const std::string response = svc.handle_frame(
      "{\"fpopt_request\":{\"schema_version\":1,\"id\":0,\"command\":\"metrics\"}}");
  const telemetry::JsonParseResult doc = telemetry::parse_json(response);
  if (!doc.value) return totals;
  const telemetry::JsonValue* body = doc.value->find("fpopt_response");
  const telemetry::JsonValue* output = body != nullptr ? body->find("output") : nullptr;
  if (output == nullptr) return totals;
  const telemetry::JsonParseResult metrics = telemetry::parse_json(output->string);
  const telemetry::JsonValue* root =
      metrics.value ? metrics.value->find("fpopt_metrics") : nullptr;
  const telemetry::JsonValue* histograms = root != nullptr ? root->find("histograms") : nullptr;
  if (histograms == nullptr) return totals;
  for (const telemetry::JsonValue& family : histograms->array) {
    const telemetry::JsonValue* name = family.find("name");
    const telemetry::JsonValue* series = family.find("series");
    if (name == nullptr || series == nullptr) continue;
    double sum = 0;
    for (const telemetry::JsonValue& s : series->array) {
      if (const telemetry::JsonValue* v = s.find("sum_seconds")) sum += v->number;
    }
    if (name->string == "fpoptd_execute_seconds") totals.execute_s = sum;
    if (name->string == "fpoptd_queue_wait_seconds") totals.queue_wait_s = sum;
  }
  return totals;
}

std::string response_output(const std::string& response) {
  const telemetry::JsonParseResult doc = telemetry::parse_json(response);
  const telemetry::JsonValue* body = doc.value ? doc.value->find("fpopt_response") : nullptr;
  const telemetry::JsonValue* output = body != nullptr ? body->find("output") : nullptr;
  return output != nullptr ? output->string : std::string();
}

}  // namespace

RunResult run_service(const Args& args) {
  RunResult r;
  r.tail_q = 0.99;
  r.concurrency = kClients;
  r.window_ops = kWindowOps;
  // A traced run sends two thirds of the requests: alternating blocks of
  // kBatch untraced (the overhead baseline) and kBatch traced, the latter
  // under a fresh armed session each (about 100 events a request stay
  // inside the rings).
  constexpr std::size_t kBatch = 200;
  const std::size_t per_client = op_count(args.seconds, kRequestsPerS, 2000) / kClients;
  const std::size_t total = args.trace ? std::max<std::size_t>(2 * per_client / 3, 2 * kBatch)
                                       : per_client;

  // Set-up: generate and encode the traffic, construct the Service, prime
  // the hot set (each hot case once, serial), and warm up with every hot
  // frame once more. The first set-up serves the clients; later ones are
  // built and dropped.
  ServiceConfig config;
  config.pool_workers = 1;
  std::unique_ptr<Service> svc;
  Traffic traffic;
  const auto setup = [&](std::size_t p) {
    const double t0 = now_s();
    Traffic fresh_traffic = make_traffic(args.seed, total);
    auto fresh = std::make_unique<Service>(config);
    for (std::size_t h = 0; h < kHotCases; ++h) {
      (void)fresh->handle_frame(fresh_traffic.frames[2 * h]);
    }
    for (std::size_t f = 0; f < 2 * kHotCases; ++f) {
      (void)fresh->handle_frame(fresh_traffic.frames[f]);
    }
    const double seconds = now_s() - t0;
    if (p == 0) {
      traffic = std::move(fresh_traffic);
      svc = std::move(fresh);
    }
    return seconds;
  };

  std::vector<std::vector<std::string>> responses(kClients, std::vector<std::string>(total));
  std::vector<std::vector<double>> latency(kClients, std::vector<double>(total));
  const auto run_clients = [&](std::size_t begin, std::size_t end, bool traced) {
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        for (std::size_t i = begin; i < end; ++i) {
          const std::string& frame = traffic.frames[traffic.schedule[c][i]];
          const double t0 = now_s();
          if (traced) {
            const telemetry::TraceSpan op(telemetry::TraceCat::kPhase, "bench.op");
            const telemetry::TraceSpan call(telemetry::TraceCat::kPhase, "bench.handle_frame");
            responses[c][i] = svc->handle_frame(frame);
          } else {
            responses[c][i] = svc->handle_frame(frame);
          }
          latency[c][i] = (now_s() - t0) * 1e3;
        }
      });
    }
    for (std::thread& t : clients) t.join();
  };
  // Latencies in issue order: the clients advance in step, so request i of
  // every client belongs to the same stretch of time.
  const auto collect_latency = [&](std::size_t begin, std::size_t end) {
    std::vector<double> out;
    for (std::size_t i = begin; i < end; ++i) {
      for (unsigned c = 0; c < kClients; ++c) out.push_back(latency[c][i]);
    }
    return out;
  };

  if (!args.trace) {
    run_parts(total, r, setup, [&](std::size_t begin, std::size_t end) {
      run_clients(begin, end, false);
      const std::vector<double> part = collect_latency(begin, end);
      r.op_ms.insert(r.op_ms.end(), part.begin(), part.end());
    });
    r.peak_rss_mb = peak_rss_mb();
  } else {
    (void)setup(0);
    const MemoCacheStats cache_before = svc->cache()->stats();
    LayerRollup roll;
    std::vector<double> untraced_ms;
    ServiceTotals traced_totals;
    std::vector<std::pair<std::size_t, std::size_t>> traced_ranges;
    for (std::size_t b = 0; b < total; b += 2 * kBatch) {
      const std::size_t mid = std::min(b + kBatch, total);
      const std::size_t e = std::min(b + 2 * kBatch, total);
      run_clients(b, mid, false);
      const std::vector<double> base = collect_latency(b, mid);
      untraced_ms.insert(untraced_ms.end(), base.begin(), base.end());
      const ServiceTotals before = service_totals(*svc);
      {
        telemetry::TraceSession session;
        run_clients(mid, e, true);
        std::string error;
        if (!roll.add(session, kClients * (e - mid), error)) {
          r.tally(false, "trace export: " + error);
        }
      }
      const ServiceTotals after = service_totals(*svc);
      traced_totals.execute_s += after.execute_s - before.execute_s;
      traced_totals.queue_wait_s += after.queue_wait_s - before.queue_wait_s;
      traced_ranges.emplace_back(mid, e);
      const std::vector<double> traced = collect_latency(mid, e);
      r.op_ms.insert(r.op_ms.end(), traced.begin(), traced.end());
    }
    const MemoCacheStats cache_after = svc->cache()->stats();
    rollup_layers(roll, r);

    // Decode, parse and encode are timed beside the traced requests, on
    // the same frames and response texts (handle_frame runs them inline).
    double decode_s = 0;
    double parse_s = 0;
    double encode_s = 0;
    std::vector<OptimizerStats> traced_stats;
    std::vector<std::size_t> traced_leaves;
    for (const auto& [mid, e] : traced_ranges) {
      for (unsigned c = 0; c < kClients; ++c) {
        for (std::size_t i = mid; i < e; ++i) {
          const std::string& frame = traffic.frames[traffic.schedule[c][i]];
          ServiceRequest req;
          ServiceError decode_error;
          double t0 = now_s();
          const bool decoded = decode_request(frame, req, decode_error);
          decode_s += now_s() - t0;
          if (!decoded) continue;
          t0 = now_s();
          const FloorplanTree tree =
              parse_floorplan(req.topology, parse_module_library(req.library));
          parse_s += now_s() - t0;
          const std::string output = response_output(responses[c][i]);
          t0 = now_s();
          (void)build_ok_response(req.id_json, output, "");
          encode_s += now_s() - t0;
          traced_stats.push_back(stats_from_output(output));
          traced_leaves.push_back(leaf_impls(tree.modules()));
        }
      }
    }
    const double n = static_cast<double>(roll.ops());
    auto& v = r.layers;
    v["service.decode_ms"] = decode_s * 1e3 / n;
    v["floorplan.parse_ms"] = parse_s * 1e3 / n;
    v["service.encode_ms"] = encode_s * 1e3 / n;
    v["service.execute_ms"] = traced_totals.execute_s * 1e3 / n;
    v["service.queue_wait_ms"] = traced_totals.queue_wait_s * 1e3 / n;
    v["io.execute_ms"] = v["service.execute_ms"];
    v["io.self_ms"] =
        v["io.execute_ms"] - (roll.op_total_ms("restructure") + roll.op_total_ms("evaluate")) / n;
    v["service.handle_self_ms"] = roll.self_ms("bench.handle_frame") / n - v["service.decode_ms"] -
                                  v["floorplan.parse_ms"] - v["service.encode_ms"] -
                                  v["io.self_ms"];
    move_wall_time(r, "service", "floorplan", v["floorplan.parse_ms"]);
    move_wall_time(r, "service", "io", v["io.self_ms"]);
    // Cache traffic over every request of the traced run.
    const double requests = static_cast<double>(kClients * total);
    const double probes = static_cast<double>(cache_after.probes() - cache_before.probes());
    v["cache.hit_rate"] =
        probes > 0 ? static_cast<double>(cache_after.hits - cache_before.hits) / probes : 0;
    v["cache.insertions"] =
        static_cast<double>(cache_after.insertions - cache_before.insertions) / requests;
    v["cache.evictions"] =
        static_cast<double>(cache_after.evictions - cache_before.evictions) / requests;
    v["cache.peak_mb"] = static_cast<double>(cache_after.peak_bytes) / (1024.0 * 1024.0);
    v["trace.overhead_frac"] = overhead_frac(r.op_ms, untraced_ms);
    stats_layers(traced_stats, traced_leaves, r);
  }

  // Checks, outside the timed region: every response is byte-equal to the
  // standalone execute_command answer for its frame (an ok response).
  std::vector<Expected> expected(traffic.frames.size());
  std::vector<bool> have(traffic.frames.size(), false);
  for (unsigned c = 0; c < kClients; ++c) {
    for (std::size_t i = 0; i < total; ++i) {
      const std::size_t f = traffic.schedule[c][i];
      if (!have[f]) {
        expected[f] = standalone(traffic.frames[f]);
        have[f] = true;
        r.peak_impls = std::max(
            r.peak_impls, static_cast<double>(stats_from_output(expected[f].output).peak_stored));
      }
      const bool ok = !expected[f].response.empty() && responses[c][i] == expected[f].response;
      r.tally(ok, "client " + std::to_string(c) + " request " + std::to_string(i) + ": " +
                      responses[c][i].substr(0, 200));
    }
  }
  return r;
}

}  // namespace perfbench
