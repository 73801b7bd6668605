// bounded_fp4: the `fpopt place` path through io/command.h
// (optimize_for_command + trace_command_placement), serial, on FP4 case 1
// (245 modules, N=20) under Table 4's configuration (K1=40, K2=1000,
// theta=0.75, S=1024, L1) and the paper's 395,000-implementation budget:
// R+L_Selection at every wheel level, incremental mode off.
#include <optional>

#include "check/check_placement.h"
#include "floorplan/serialize.h"
#include "harness.h"
#include "io/command.h"
#include "workload/floorplans.h"

namespace perfbench {

namespace {

using namespace fpopt;

/// Best area of the paper case; the seed does not move it.
constexpr Area kPinnedArea = 272'975;
constexpr double kOpsPerS = 5.8;  ///< measured rate, README.md "Op counts"
/// op_ms_tail's percentile: the highest that leaves ten samples beyond it
/// in the quietest third of a run at the minimum op count below.
constexpr double kTailQ = 0.8;
constexpr std::size_t kWindowOps = 5;  ///< about a second of ops

/// What one op leaves for the checks after the timed region.
struct OpRecord {
  Area best_area = 0;
  std::optional<Placement> placement;
  OptimizerStats stats;
  std::string error;
};

OpRecord place_op(const CommandSpec& spec, const FloorplanTree& tree) {
  OpRecord rec;
  try {
    telemetry::TraceSpan io_span(telemetry::TraceCat::kPhase, "bench.optimize_for_command");
    const OptimizeOutcome outcome = optimize_for_command(spec, tree, CommandEnv{}, nullptr);
    rec.best_area = outcome.best_area;
    rec.stats = outcome.stats;
    {
      const telemetry::TraceSpan place_span(telemetry::TraceCat::kPhase,
                                            "bench.trace_command_placement");
      rec.placement = trace_command_placement(tree, outcome, std::nullopt);
    }
  } catch (const CommandError& e) {
    rec.error = e.message;
  }
  return rec;
}

}  // namespace

RunResult run_place(const Args& args) {
  RunResult r;
  r.tail_q = kTailQ;
  r.window_ops = kWindowOps;

  CommandSpec spec;
  spec.command = "place";
  spec.options.selection.k1 = 40;
  spec.options.selection.k2 = 1000;
  spec.options.selection.theta = 0.75;
  spec.options.selection.heuristic_cap = 1024;
  spec.options.selection.metric = LpMetric::L1;
  spec.options.impl_budget = kPaperMemoryBudget;

  // Set-up: generate the case, encode it under the seed, parse it back,
  // and run one warm-up op. Every set-up yields the same tree.
  FloorplanTree tree;
  const auto setup = [&](std::size_t) {
    const double t0 = now_s();
    const InputTexts texts = seeded_inputs(make_paper_floorplan(4, 1), args.seed);
    tree = parse_floorplan(texts.topology, parse_module_library(texts.library));
    (void)place_op(spec, tree);
    return now_s() - t0;
  };

  // The tail guard needs ten samples beyond the tail percentile in a pool
  // of the quietest windows (main.cpp); the run holds at least three such
  // pools, so the tail never reaches past the quietest third of the run.
  const std::size_t min_ops = 3 * (static_cast<std::size_t>(10.0 / (1.0 - kTailQ)) + 1);
  const std::size_t ops = op_count(args.seconds, kOpsPerS, min_ops);
  std::vector<OpRecord> records;
  records.reserve(ops);
  const auto timed_op = [&](bool traced) {
    const double t0 = now_s();
    {
      std::optional<telemetry::TraceSpan> op;
      if (traced) op.emplace(telemetry::TraceCat::kPhase, "bench.op");
      records.push_back(place_op(spec, tree));
    }
    return (now_s() - t0) * 1e3;
  };

  if (!args.trace) {
    run_parts(ops, r, setup, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) r.op_ms.push_back(timed_op(false));
    });
    r.peak_rss_mb = peak_rss_mb();
  } else {
    // A third of the ops traced, five per armed session, each batch after
    // five untraced ones.
    (void)setup(0);
    LayerRollup roll;
    std::vector<double> untraced_ms;
    traced_batches(std::max<std::size_t>(ops / 3, 10), 5, roll, r, untraced_ms, timed_op);
    rollup_layers(roll, r);
    const double n = static_cast<double>(roll.ops());
    auto& v = r.layers;
    v["optimize.place_ms"] = roll.self_ms("bench.trace_command_placement") / n;
    v["io.self_ms"] = roll.self_ms("bench.optimize_for_command") / n;
    v["io.execute_ms"] = roll.op_total_ms("bench.optimize_for_command") / n;
    std::vector<OptimizerStats> stats;
    for (const OpRecord& rec : records) stats.push_back(rec.stats);
    stats_layers(stats, std::vector<std::size_t>(stats.size(), leaf_impls(tree.modules())), r);
    v["trace.overhead_frac"] = overhead_frac(r.op_ms, untraced_ms);
  }

  // Checks, outside the timed region: the pinned optimum, and a placement
  // that is a valid tiling whose chip area is that optimum.
  for (std::size_t i = 0; i < records.size(); ++i) {
    const OpRecord& rec = records[i];
    const std::string where = "op " + std::to_string(i);
    if (!rec.error.empty() || !rec.placement.has_value()) {
      r.tally(false, where + ": " + rec.error);
      continue;
    }
    const CheckResult check = check_placement(*rec.placement, tree);
    const bool ok = rec.best_area == kPinnedArea && check.ok() &&
                    rec.placement->chip_area() == kPinnedArea;
    r.tally(ok, where + ": area " + std::to_string(rec.best_area) + ", placement " +
                    std::to_string(rec.placement->chip_area()) + " " + check.report());
    r.peak_impls = std::max(r.peak_impls, static_cast<double>(rec.stats.peak_stored));
  }
  return r;
}

}  // namespace perfbench
