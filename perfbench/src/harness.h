// Shared plumbing of the benchmark driver: run arguments, the result a
// workload hands back, percentile and resource helpers, and the per-layer
// roll-up of a traced run.
//
// Every layer is timed from outside: the driver wraps TraceSpans (names
// prefixed "bench.") around its calls into the library's public functions,
// and the spans the library already records (phases, eval_node, kernels,
// cache passes, pool instants) nest beneath them. A layer's time is the
// self time of its spans: span duration minus the part its directly nested
// spans on the same thread cover, so the self times of everything under a
// "bench.op" root add up to that root's duration.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "floorplan/tree.h"
#include "optimize/stats.h"
#include "telemetry/trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
};

/// Seconds on the steady clock.
[[nodiscard]] double now_s();

/// Percentile q in [0, 1] by linear interpolation between order
/// statistics. `sorted` must be ascending and non-empty.
[[nodiscard]] double percentile(const std::vector<double>& sorted, double q);
[[nodiscard]] double median(std::vector<double> v);
/// Samples ranked above percentile q of n samples (the tail guard's count).
[[nodiscard]] std::size_t beyond(std::size_t n, double q);

/// Peak resident set of this process so far, MiB.
[[nodiscard]] double peak_rss_mb();
/// CPUs this process may run on (what `nproc` prints).
[[nodiscard]] unsigned cpu_count();
/// Ops a run performs: `seconds` worth at the workload's measured rate
/// (README.md, "Op counts"), and never fewer than `min_ops`. The count is
/// fixed for a given --seconds, so a faster program finishes sooner but
/// does the same work: cache state and peak memory do not move when
/// speed moves.
[[nodiscard]] std::size_t op_count(double seconds, double measured_ops_per_s,
                                   std::size_t min_ops);

/// Self-time roll-up over one or more armed trace sessions.
class LayerRollup {
 public:
  /// Harvest one session covering `ops` traced ops, each under a
  /// "bench.op" root span. Call only after the traced work quiesced.
  /// Returns false (and sets `error`) when the export does not load.
  bool add(const fpopt::telemetry::TraceSession& session, std::size_t ops, std::string& error);

  /// Self time, ms, of spans with this name on every thread.
  [[nodiscard]] double self_ms(const std::string& name) const;
  /// Full duration, ms, of spans with this name on the threads that ran ops.
  [[nodiscard]] double op_total_ms(const std::string& name) const;
  /// Spans or instants with this name, every thread.
  [[nodiscard]] double count(const std::string& name) const;
  /// Op-thread self time per span name (the wall table's input).
  [[nodiscard]] const std::map<std::string, double>& op_self() const { return op_self_ms_; }
  /// Sum of the "bench.op" root spans, ms.
  [[nodiscard]] double op_wall_ms() const { return op_wall_ms_; }
  [[nodiscard]] std::size_t ops() const { return ops_; }
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }

 private:
  std::map<std::string, double> self_ms_;
  std::map<std::string, double> op_self_ms_;
  std::map<std::string, double> op_total_ms_;
  std::map<std::string, double> count_;
  double op_wall_ms_ = 0;
  std::size_t ops_ = 0;
  std::uint64_t dropped_ = 0;
};

/// What a workload run hands back to main.
struct RunResult {
  std::vector<double> setup_s;  ///< one per fresh set-up; setup_s reports the quietest
  std::vector<double> op_ms;    ///< latency of every timed op, in issue order
  double concurrency = 1;       ///< ops in flight at once (closed-loop clients)
  double timed_s = 0;           ///< wall time of the timed region
  double tail_q = 0.9;          ///< the percentile op_ms_tail reports
  std::size_t window_ops = 1;   ///< ops per window the timings rank (main.cpp)
  double peak_rss_mb = 0;       ///< read right after the timed region
  double peak_impls = 0;        ///< max OptimizerStats::peak_stored over ops
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  // Traced runs only: per-layer metric values, and the op wall time split
  // into layer rows (op threads only; rows plus residue sum to op_wall_ms).
  std::map<std::string, double> layers;
  std::vector<std::pair<std::string, double>> wall_rows;
  double op_wall_ms = 0;

  /// Count one checked op outcome; report the first few failures.
  void tally(bool ok, const std::string& what = {});
};

/// The per-layer metric names with their units, in report order.
[[nodiscard]] const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// Fill the layer metrics every workload derives the same way from its
/// trace (library spans, span counts, pool instants, residue, drops), and
/// the op-thread wall rows, one per layer, by the span-to-layer map in
/// harness.cpp.
void rollup_layers(const LayerRollup& roll, RunResult& r);

/// The optimizer's own counters averaged over the traced ops' stats:
/// generated, selection calls and implementations selected away, and
/// prune_ratio, the share of generated candidates not kept: 1 - (M minus
/// the leaf implementations) / generated, with `leaf_impls[i]` the leaf
/// count of op i. In incremental mode served nodes replay their recorded
/// counters, so these count the logical work of a scratch run; the span
/// counts (nodes_evaluated, cspp_calls) count the work actually done.
void stats_layers(const std::vector<fpopt::OptimizerStats>& stats,
                  const std::vector<std::size_t>& leaf_impls, RunResult& r);

/// Implementations over all modules of a tree (the leaves' share of M).
[[nodiscard]] std::size_t leaf_impls(const std::vector<fpopt::Module>& modules);

/// Add `ms` per op to wall row `to` and take it from row `from`.
void move_wall_time(RunResult& r, const std::string& from, const std::string& to, double ms);

/// Overhead of tracing: traced vs untraced median op latency, as a share.
[[nodiscard]] double overhead_frac(std::vector<double> traced_ms, std::vector<double> untraced_ms);

/// The two CLI input texts of one floorplan.
struct InputTexts {
  std::string topology;
  std::string library;
};

/// The workload seed's view of a fixed floorplan: every module renamed and
/// the library's lines and each line's implementations shuffled. Parsing
/// dominance-prunes each line back to the same R-list, so the seed changes
/// the input bytes, not the problem: the optimum and the work are the
/// paper case's on every seed.
[[nodiscard]] InputTexts seeded_inputs(const fpopt::FloorplanTree& tree, std::uint64_t seed);

/// Fresh set-ups an untraced run makes, spread over it (see run_parts).
inline constexpr std::size_t kSetups = 5;

/// An untraced run: the `ops` timed ops cut into kSetups equal parts, each
/// after a fresh set-up, so the set-ups sample the host at several points
/// in time the way the op windows do. `setup(p)` builds the state (p == 0
/// keeps it for the ops; later ones are thrown away) and returns its
/// seconds; `part(begin, end)` runs ops [begin, end) and appends their
/// latencies to r.op_ms. Only the parts count toward r.timed_s.
template <class Setup, class Part>
void run_parts(std::size_t ops, RunResult& r, Setup&& setup, Part&& part) {
  for (std::size_t p = 0; p < kSetups; ++p) {
    r.setup_s.push_back(setup(p));
    const double t0 = now_s();
    part(ops * p / kSetups, ops * (p + 1) / kSetups);
    r.timed_s += now_s() - t0;
  }
}

/// A traced run: `ops` traced ops in batches of `batch`, each batch under a
/// fresh armed TraceSession (the rings are bounded, so a batch must fit in
/// them) and each preceded by `batch` untraced ops, the overhead baseline
/// measured under the same conditions. `op(traced)` runs one op, inside a
/// "bench.op" span when traced, and returns its latency in ms. Every
/// session is harvested into `roll`; a harvest failure counts as a failed
/// check in `r`.
template <class Op>
void traced_batches(std::size_t ops, std::size_t batch, LayerRollup& roll, RunResult& r,
                    std::vector<double>& untraced_ms, Op&& op) {
  for (std::size_t start = 0; start < ops; start += batch) {
    const std::size_t end = start + batch < ops ? start + batch : ops;
    for (std::size_t i = start; i < end; ++i) untraced_ms.push_back(op(false));
    fpopt::telemetry::TraceSession session;
    for (std::size_t i = start; i < end; ++i) r.op_ms.push_back(op(true));
    std::string error;
    if (!roll.add(session, end - start, error)) r.tally(false, "trace export: " + error);
  }
}

// The workloads, one translation unit each.
[[nodiscard]] RunResult run_place(const Args& args);    // bounded_fp4
[[nodiscard]] RunResult run_anneal(const Args& args);   // anneal_incremental
[[nodiscard]] RunResult run_service(const Args& args);  // service_mixed

}  // namespace perfbench
