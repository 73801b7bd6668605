// Pool-schedule ablation: serial vs N-thread wall time on table-scale
// workloads, with the determinism contract checked on every run (equal
// best areas, byte-equal root curves).
//
// Emits machine-readable BENCH_parallel.json next to the binary:
//   {"hardware_concurrency": C,
//    "workloads": [{"name": ..., "serial_seconds": S,
//                   "runs": [{"threads": T, "seconds": W, "speedup": S/W}],
//                   "best_speedup": ...,
//                   "run_report": {"fpopt_run_report": ...}}]}
// The embedded run_report is the serial run's full telemetry document
// (schema v1, validated in CI by fpopt_report_check).
// Speedups depend on the runner; the acceptance target (>= 2x on a
// Table-3/4-scale workload) assumes a 4+-core machine. See EXPERIMENTS.md.
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

struct Run {
  std::size_t threads = 0;
  double seconds = 0;
};

/// Best of three runs (damps cold-start and scheduler noise). When
/// `last_out` is non-null it receives the final rep's full outcome (for
/// the embedded run report).
double time_run(const Workload& w, std::size_t threads, Area& area_out, std::size_t& curve_out,
                OptimizeOutcome* last_out = nullptr) {
  OptimizerOptions opts = w.opts;
  opts.threads = threads;
  double best = 0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    OptimizeOutcome out = optimize_floorplan(w.tree, opts);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (out.out_of_memory) {
      std::cerr << "FATAL: workload " << w.name << " exceeded its memory budget\n";
      std::exit(1);
    }
    area_out = out.best_area;
    curve_out = out.root.size();
    if (rep == 0 || secs < best) best = secs;
    if (last_out != nullptr) *last_out = std::move(out);
  }
  return best;
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
  session.write_json(file);
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
  // Table-4-scale: FP4 case 3 (N = 40) with the paper's R+L selection
  // knobs — exercises the pooled selection/error-table kernels.
  workloads.push_back(
      {"fp4_case3_rl", make_paper_floorplan(4, 3), rl_selection_options(40, 50, 0.8, 256)});

  std::ostringstream json;
  json << "{\n  \"hardware_concurrency\": " << hw << ",\n  \"workloads\": [";
  std::cout << "parallel ablation (hardware_concurrency " << hw << ")\n\n";

  bool first_workload = true;
  for (const Workload& w : workloads) {
    Area serial_area = 0;
    std::size_t serial_curve = 0;
    OptimizeOutcome serial_out;
    const double serial_secs = time_run(w, 0, serial_area, serial_curve, &serial_out);
    std::cout << w.name << ": serial " << serial_secs << " s (area " << serial_area << ", "
              << serial_curve << " root impls)\n";

    json << (first_workload ? "" : ",") << "\n    {\"name\": \"" << w.name
         << "\", \"serial_seconds\": " << serial_secs << ", \"runs\": [";
    first_workload = false;

    double best_speedup = 0;
    bool first_run = true;
    for (const std::size_t threads : thread_counts) {
      Area area = 0;
      std::size_t curve = 0;
      const double secs = time_run(w, threads, area, curve);
      if (area != serial_area || curve != serial_curve) {
        std::cerr << "FATAL: threads=" << threads << " diverged from serial on " << w.name
                  << " (area " << area << " vs " << serial_area << ")\n";
        return 1;
      }
      const double speedup = secs > 0 ? serial_secs / secs : 0;
      best_speedup = std::max(best_speedup, speedup);
      std::cout << "  threads " << threads << ": " << secs << " s  (speedup " << speedup
                << ")\n";
      json << (first_run ? "" : ", ") << "{\"threads\": " << threads
           << ", \"seconds\": " << secs << ", \"speedup\": " << speedup << "}";
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
