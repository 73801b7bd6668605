// fpopt_perfbench: the repository's end-to-end benchmark driver.
//
//   fpopt_perfbench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//
// Workloads: bounded_fp4, anneal_incremental, service_mixed (README.md
// says why each exists). Human-readable lines come first; the
// last line of stdout is one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// holding the end-to-end metrics of an untraced run (--trace 0), or the
// per-layer metrics of a traced run (--trace 1).
//
// Exit codes: 0 done (the JSON says whether every op was correct), 2 bad
// arguments, 3 the workload needs more busy threads than there are CPUs,
// 4 too few samples beyond the tail percentile to report it.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"
#include "telemetry/json.h"

namespace {

using perfbench::Args;
using perfbench::RunResult;

struct Workload {
  const char* name;
  unsigned busy_threads;  ///< client threads + pool workers the run keeps busy
};

constexpr Workload kWorkloads[] = {
    {"bounded_fp4", 1},
    {"anneal_incremental", 1},
    {"service_mixed", 3},  // 2 closed-loop clients + 1 pool worker
};

int usage(const char* why) {
  std::fprintf(stderr,
               "fpopt_perfbench: %s\n"
               "usage: fpopt_perfbench --workload <bounded_fp4|anneal_incremental|service_mixed> "
               "[--seed N] [--seconds S] [--trace 0|1]\n",
               why);
  return 2;
}

std::string num(double v) { return fpopt::telemetry::json_number(v); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_json(const RunResult& r, const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.failed == 0 && r.attempted > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += fpopt::telemetry::json_quote(metrics[i].name) + ": {\"value\": " +
           num(metrics[i].value) + ", \"unit\": " + fpopt::telemetry::json_quote(metrics[i].unit) +
           "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

// The timed ops, in issue order, cut into windows of `size` ops (an eighth
// of a second to a second of work each), each sorted, and ranked by their
// percentile q, quietest first.
// On a shared host, memory-bound ops swing between a fast regime and one
// up to twice as slow, each lasting seconds; a whole-run statistic moves
// with the share of the run spent slow, while the quietest windows track
// the program.
std::vector<std::vector<double>> ranked_windows(const std::vector<double>& op_ms,
                                                std::size_t size, double q) {
  std::vector<std::vector<double>> windows;
  for (std::size_t begin = 0; begin + size <= op_ms.size(); begin += size) {
    windows.emplace_back(op_ms.begin() + static_cast<std::ptrdiff_t>(begin),
                         op_ms.begin() + static_cast<std::ptrdiff_t>(begin + size));
    std::sort(windows.back().begin(), windows.back().end());
  }
  std::stable_sort(windows.begin(), windows.end(), [q](const auto& a, const auto& b) {
    return perfbench::percentile(a, q) < perfbench::percentile(b, q);
  });
  return windows;
}

// The quietest windows pooled, sorted, until the pool holds `need` ops
// (all of them if the run is shorter).
std::vector<double> quiet_pool(const std::vector<std::vector<double>>& ranked, std::size_t need) {
  std::vector<double> pool;
  for (const std::vector<double>& w : ranked) {
    if (pool.size() >= need) break;
    pool.insert(pool.end(), w.begin(), w.end());
  }
  std::sort(pool.begin(), pool.end());
  return pool;
}

int report_end_to_end(const RunResult& r) {
  std::vector<double> sorted = r.op_ms;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t n = sorted.size();
  const std::size_t tenth = std::max(r.window_ops, n / 10);

  // The tail comes from the tenth of the run whose windows have the lowest
  // tail, widened by as many windows as it takes to hold ten samples beyond
  // the percentile. Ranked by median instead, a quiet window could still
  // hold a noise burst, and the tail followed it. If the whole run holds
  // fewer than ten samples beyond, the tail is not reported.
  const std::vector<std::vector<double>> by_tail =
      ranked_windows(r.op_ms, r.window_ops, r.tail_q);
  std::size_t tail_need = tenth;
  while (perfbench::beyond(tail_need, r.tail_q) < 10) ++tail_need;
  const std::vector<double> tail_pool = quiet_pool(by_tail, tail_need);
  const std::size_t tail_beyond = perfbench::beyond(tail_pool.size(), r.tail_q);
  if (tail_beyond < 10) {
    std::fprintf(stderr,
                 "fpopt_perfbench: refusing to report op_ms_tail: %zu samples beyond p%g "
                 "(need 10)\n",
                 tail_beyond, r.tail_q * 100);
    return 4;
  }
  const double fail_frac =
      r.attempted == 0 ? 1.0 : static_cast<double>(r.failed) / static_cast<double>(r.attempted);

  // Median and throughput of the quietest tenth of the run; the whole-run
  // figures are printed beside them.
  const std::vector<std::vector<double>> by_median = ranked_windows(r.op_ms, r.window_ops, 0.5);
  const std::vector<double> quiet = quiet_pool(by_median, tenth);
  double quiet_ms = 0;
  for (const double ms : quiet) quiet_ms += ms;
  const double quiet_ops_per_s =
      r.concurrency * 1e3 * static_cast<double>(quiet.size()) / quiet_ms;

  // setup_s: the quietest of the fresh set-ups spread over the run, for
  // the same reason as the windows.
  const std::vector<Metric> metrics = {
      {"setup_s", *std::min_element(r.setup_s.begin(), r.setup_s.end()), "s"},
      {"op_ms_p50", perfbench::percentile(quiet, 0.5), "ms"},
      {"op_ms_tail", perfbench::percentile(tail_pool, r.tail_q), "ms"},
      {"ops_per_s", quiet_ops_per_s, "1/s"},
      {"peak_rss_mb", r.peak_rss_mb, "MiB"},
      {"peak_impls", r.peak_impls, "count"},
  };
  const auto windows = [&](const std::vector<double>& pool) {
    return std::to_string(pool.size() / r.window_ops) + " of " +
           std::to_string(by_median.size()) + " windows of " + std::to_string(r.window_ops) + " ops";
  };
  std::printf("%-12s %14s %-6s %s\n", "metric", "value", "unit", "samples");
  std::printf("%-12s %14.6g %-6s n=%zu fresh set-ups spread over the run, quietest (median: "
              "%.6g)\n",
              "setup_s", metrics[0].value, "s", r.setup_s.size(), perfbench::median(r.setup_s));
  std::printf("%-12s %14.6g %-6s n=%zu ops, quietest %s by median (whole run: %.6g)\n",
              "op_ms_p50", metrics[1].value, "ms", quiet.size(), windows(quiet).c_str(),
              perfbench::percentile(sorted, 0.5));
  std::printf("%-12s %14.6g %-6s n=%zu ops, p%g, %zu beyond, quietest %s by p%g (whole run: "
              "%.6g)\n",
              "op_ms_tail", metrics[2].value, "ms", tail_pool.size(), r.tail_q * 100, tail_beyond,
              windows(tail_pool).c_str(), r.tail_q * 100, perfbench::percentile(sorted, r.tail_q));
  std::printf("%-12s %14.6g %-6s n=%zu ops, same pool as op_ms_p50 (whole run: %zu ops in "
              "%.3f s)\n",
              "ops_per_s", metrics[3].value, "1/s", quiet.size(), n, r.timed_s);
  std::printf("%-12s %14.6g %-6s n=1 (ru_maxrss after the timed region)\n", "peak_rss_mb",
              metrics[4].value, "MiB");
  std::printf("%-12s %14.6g %-6s n=%llu ops (max)\n", "peak_impls", metrics[5].value, "count",
              static_cast<unsigned long long>(r.attempted));
  std::printf("%-12s %14.6g %-6s n=%llu ops attempted\n", "fail_frac", fail_frac, "fraction",
              static_cast<unsigned long long>(r.attempted));
  print_json(r, metrics);
  return 0;
}

int report_layers(const RunResult& r) {
  std::vector<Metric> metrics;
  std::printf("%-28s %14s %s\n", "per-layer metric", "value", "unit");
  for (const auto& [name, unit] : perfbench::layer_metrics()) {
    const auto it = r.layers.find(name);
    const double value = it == r.layers.end() ? 0.0 : it->second;
    std::printf("%-28s %14.6g %s\n", name.c_str(), value, unit.c_str());
    metrics.push_back({name, value, unit});
  }
  std::printf("\nop wall time by layer (op threads, ms per op, n=%zu traced ops)\n",
              static_cast<std::size_t>(r.op_ms.size()));
  double sum = 0;
  for (const auto& [layer, ms] : r.wall_rows) {
    const double share = r.op_wall_ms > 0 ? ms / r.op_wall_ms : 0;
    std::printf("  %-14s %12.6f  %6.2f%%\n", layer.c_str(), ms, share * 100);
    sum += ms;
  }
  std::printf("  %-14s %12.6f\n  %-14s %12.6f\n", "rows+residue", sum, "op wall", r.op_wall_ms);
  print_json(r, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  bool seconds_ok = true;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed takes an unsigned integer");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), &end);
      seconds_ok = *end == '\0' && args.seconds > 0 && args.seconds <= 600;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
      args.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }
  if (!seconds_ok) return usage("--seconds takes a number in (0, 600]");
  const Workload* workload = nullptr;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) workload = &w;
  }
  if (workload == nullptr) return usage(("unknown workload '" + args.workload + "'").c_str());

  const unsigned cpus = perfbench::cpu_count();
  std::printf("workload %s  seed %llu  seconds %g  trace %d  nproc %u  busy threads %u\n",
              workload->name, static_cast<unsigned long long>(args.seed), args.seconds,
              args.trace ? 1 : 0, cpus, workload->busy_threads);
  if (workload->busy_threads > cpus) {
    std::fprintf(stderr,
                 "fpopt_perfbench: %s keeps %u threads busy but only %u CPUs are available\n",
                 workload->name, workload->busy_threads, cpus);
    return 3;
  }

  const std::string name = workload->name;
  const RunResult r = name == "bounded_fp4"          ? perfbench::run_place(args)
                      : name == "anneal_incremental" ? perfbench::run_anneal(args)
                                                     : perfbench::run_service(args);
  std::fflush(stderr);
  return args.trace ? report_layers(r) : report_end_to_end(r);
}
