// Pool-schedule ablation: serial vs N-thread wall time on table-scale
// workloads, with the determinism contract checked on every run (equal
// best areas, byte-equal root curves).
//
// Every cell is timed kTrials times and reported as the median with the
// min and max. A cell with T pool workers has T + 1 executors, because
// TaskGroup::wait runs queued tasks on the calling thread.
//
// Emits machine-readable BENCH_parallel.json next to the binary:
//   {"hardware_concurrency": C, "trials": N,
//    "workloads": [{"name": ..., "serial_seconds": S,
//                   "serial_min_seconds": ..., "serial_max_seconds": ...,
//                   "runs": [{"threads": T, "executors": T + 1,
//                             "seconds": W, "min_seconds": ...,
//                             "max_seconds": ..., "speedup": S/W}],
//                   "best_speedup": ...,
//                   "run_report": {"fpopt_run_report": ...}}]}
// The seconds fields are medians. The embedded run_report is the serial
// run's full telemetry document (schema v1, validated in CI by
// fpopt_report_check). Speedups depend on the runner; the acceptance
// target (>= 2x on a Table-3/4-scale workload) assumes a 4+-core
// machine. See EXPERIMENTS.md.
#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "table_common.h"
#include "io/run_report_build.h"
#include "optimize/optimizer.h"
#include "telemetry/run_report.h"
#include "telemetry/trace.h"
#include "workload/floorplans.h"

namespace {

using namespace fpopt;
using namespace fpopt::bench;

struct Workload {
  std::string name;
  FloorplanTree tree;
  OptimizerOptions opts;
};

constexpr int kTrials = 11;

/// Median, min and max wall time of one cell's trials.
struct Timing {
  double median = 0;
  double min = 0;
  double max = 0;
};

/// Times kTrials runs. When `last_out` is non-null it receives the final
/// trial's full outcome (for the embedded run report).
Timing time_run(const Workload& w, std::size_t threads, Area& area_out, std::size_t& curve_out,
                OptimizeOutcome* last_out = nullptr) {
  OptimizerOptions opts = w.opts;
  opts.threads = threads;
  std::vector<double> secs;
  for (int trial = 0; trial < kTrials; ++trial) {
    const auto t0 = std::chrono::steady_clock::now();
    OptimizeOutcome out = optimize_floorplan(w.tree, opts);
    secs.push_back(std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    if (out.out_of_memory) {
      std::cerr << "FATAL: workload " << w.name << " exceeded its memory budget\n";
      std::exit(1);
    }
    area_out = out.best_area;
    curve_out = out.root.size();
    if (last_out != nullptr) *last_out = std::move(out);
  }
  std::sort(secs.begin(), secs.end());
  return {secs[secs.size() / 2], secs.front(), secs.back()};
}

std::string ms(double seconds) {
  std::ostringstream out;
  out.precision(3);
  out << std::fixed << seconds * 1e3 << " ms";
  return out.str();
}

/// One extra (untimed) run with the event tracer armed; the schedule
/// timeline lands in `path` for fpopt_trace / Perfetto. Kept out of the
/// timed reps so tracing overhead never skews the speedup table.
void write_trace(const Workload& w, std::size_t threads, const std::string& path) {
  telemetry::TraceSession session;
  session.set_meta("tool", "ablation_parallel");
  session.set_meta("command", w.name);
  session.set_meta("threads", std::to_string(threads));
  telemetry::trace_thread_name("main");
  OptimizerOptions opts = w.opts;
  opts.threads = threads;
  const OptimizeOutcome out = optimize_floorplan(w.tree, opts);
  if (out.out_of_memory) {
    std::cerr << "FATAL: traced run of " << w.name << " exceeded its memory budget\n";
    std::exit(1);
  }
  std::ofstream file(path, std::ios::binary);
  file << session.to_json();
  std::cout << "  wrote " << path << '\n';
}

}  // namespace

int main() {
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::size_t> thread_counts = {1, 2, 4};
  if (std::find(thread_counts.begin(), thread_counts.end(), hw) == thread_counts.end()) {
    thread_counts.push_back(hw);
  }
  std::sort(thread_counts.begin(), thread_counts.end());

  std::vector<Workload> workloads;
  // Table-1-scale: FP1 case 1, exact (L-combine-heavy pinwheels).
  workloads.push_back({"fp1_case1_exact", make_paper_floorplan(1, 1), exact_options()});
  // Table-3-scale (the acceptance workload): FP3 case 1, exact — the
  // 120-module run whose node DAG has the widest independent subtrees.
  workloads.push_back({"fp3_case1_exact", make_paper_floorplan(3, 1), exact_options()});
  // Table-4-scale: FP4 case 3 (N = 40) with K2 = 50: many short L
  // selections.
  workloads.push_back(
      {"fp4_case3_rl", make_paper_floorplan(4, 3), rl_selection_options(40, 50, 0.8, 256)});
  // Table 4's own configuration (FP4 case 1: K1 = 40, K2 = 1000,
  // theta = 0.75, S = 1024, budget 395,000), the one the bounded_fp4
  // benchmark workload runs: fewer, longer L selections.
  workloads.push_back({"fp4_case1_table4", make_paper_floorplan(4, 1),
                       rl_selection_options(40, 1000, 0.75, 1024)});

  std::ostringstream json;
  json << "{\n  \"hardware_concurrency\": " << hw << ", \"trials\": " << kTrials
       << ",\n  \"workloads\": [";
  std::cout << "parallel ablation (hardware_concurrency " << hw << "; median [min, max] of "
            << kTrials << " trials per cell)\n\n";

  bool first_workload = true;
  for (const Workload& w : workloads) {
    Area serial_area = 0;
    std::size_t serial_curve = 0;
    OptimizeOutcome serial_out;
    const Timing serial = time_run(w, 0, serial_area, serial_curve, &serial_out);
    std::cout << w.name << " (area " << serial_area << ", " << serial_curve << " root impls)\n"
              << "  serial, 1 executor: " << ms(serial.median) << " [" << ms(serial.min)
              << ", " << ms(serial.max) << "]\n";

    json << (first_workload ? "" : ",") << "\n    {\"name\": \"" << w.name
         << "\", \"serial_seconds\": " << serial.median
         << ", \"serial_min_seconds\": " << serial.min
         << ", \"serial_max_seconds\": " << serial.max << ", \"runs\": [";
    first_workload = false;

    double best_speedup = 0;
    bool first_run = true;
    for (const std::size_t threads : thread_counts) {
      Area area = 0;
      std::size_t curve = 0;
      const Timing t = time_run(w, threads, area, curve);
      if (area != serial_area || curve != serial_curve) {
        std::cerr << "FATAL: threads=" << threads << " diverged from serial on " << w.name
                  << " (area " << area << " vs " << serial_area << ")\n";
        return 1;
      }
      const double speedup = t.median > 0 ? serial.median / t.median : 0;
      best_speedup = std::max(best_speedup, speedup);
      std::cout << "  " << threads << " workers, " << threads + 1
                << " executors: " << ms(t.median) << " [" << ms(t.min) << ", " << ms(t.max)
                << "]  (speedup " << speedup << ")\n";
      json << (first_run ? "" : ", ") << "{\"threads\": " << threads
           << ", \"executors\": " << threads + 1 << ", \"seconds\": " << t.median
           << ", \"min_seconds\": " << t.min << ", \"max_seconds\": " << t.max
           << ", \"speedup\": " << speedup << "}";
      first_run = false;
    }
    telemetry::RunReport report("ablation_parallel", w.name);
    report.add_config("threads", "0");
    report_optimizer(report, serial_out);
    json << "], \"best_speedup\": " << best_speedup
         << ", \"run_report\": " << report.to_json(false) << "}";

    // Schedule timelines for the acceptance workload, serial and at full
    // width (validated + archived by the CI trace leg).
    if (w.name == "fp3_case1_exact") {
      write_trace(w, 0, "TRACE_fp3_serial.json");
      write_trace(w, hw, "TRACE_fp3_parallel.json");
    }
  }
  json << "\n  ]\n}\n";

  std::ofstream out("BENCH_parallel.json", std::ios::binary);
  out << json.str();
  std::cout << "\nwrote BENCH_parallel.json\n";
  return 0;
}
