// Parallel-vs-serial equivalence suite (ISSUE: parallel bottom-up
// optimizer). The engine's pool schedule promises *bit-identical* results
// for every thread count: the same NodeResult lists and provenance for every
// T' node, the same selection stats (including the accumulated double
// error sums), the same best area and traced placement, and the same
// memory-budget abort decision. These tests serialize everything to
// strings (doubles in hexfloat) and compare byte-for-byte across
// threads in {0, 1, 2, 8}.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <ios>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "io/run_report_build.h"
#include "optimize/optimizer.h"
#include "optimize/placement.h"
#include "telemetry/json.h"
#include "telemetry/run_report.h"
#include "telemetry/schema.h"
#include "test_util.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

constexpr std::size_t kThreadCounts[] = {0, 1, 2, 8};

/// A built run report, both as the raw counter list (exact u64 compare)
/// and as the parsed JSON document (schema checks).
struct RunReportDoc {
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  telemetry::JsonValue doc;
};

std::string serialize_artifacts(const OptimizeOutcome& out) {
  std::ostringstream s;
  s << std::hexfloat;
  s << "best_area=" << out.best_area << "\nroot:";
  for (const RectImpl& r : out.root) s << ' ' << r.w << 'x' << r.h;
  s << '\n';
  const OptimizeArtifacts& art = *out.artifacts;
  for (std::size_t id = 0; id < art.nodes.size(); ++id) {
    const NodeResult& res = *art.nodes[id];
    s << "node " << id << (res.is_l ? " L\n" : " R\n");
    if (!res.is_l) {
      for (std::size_t i = 0; i < res.rlist.size(); ++i) {
        s << "  " << res.rlist[i].w << 'x' << res.rlist[i].h << " prov "
          << res.rprov[i].left << ',' << res.rprov[i].right << '\n';
      }
    } else {
      for (const LList& list : res.lset.lists()) {
        s << "  chain:";
        for (const LEntry& e : list) {
          s << " [" << e.shape.w1 << ',' << e.shape.w2 << ',' << e.shape.h1 << ','
            << e.shape.h2 << "#" << e.id << " prov " << res.lprov[e.id].left << ','
            << res.lprov[e.id].right << ']';
        }
        s << '\n';
      }
    }
  }
  return s.str();
}

std::string serialize_placement(const FloorplanTree& tree, const OptimizeOutcome& out) {
  const Placement p = trace_placement(tree, out, out.root.min_area_index());
  std::ostringstream s;
  s << "chip " << p.width << 'x' << p.height << '\n';
  for (const ModulePlacement& m : p.rooms) {
    s << m.module_id << ": room " << m.room.x << ',' << m.room.y << ',' << m.room.w << ','
      << m.room.h << " impl " << m.impl.w << 'x' << m.impl.h << '\n';
  }
  return s.str();
}

/// Run the workload at every thread count and require byte-identical
/// artifacts, stats and placements.
void expect_equivalent(const FloorplanTree& tree, OptimizerOptions opts) {
  opts.threads = 0;
  const OptimizeOutcome serial = optimize_floorplan(tree, opts);
  ASSERT_FALSE(serial.out_of_memory);
  const std::string want_art = serialize_artifacts(serial);
  const std::string want_stats = test::serialize_stats(serial.stats);
  const std::string want_place = serialize_placement(tree, serial);
  for (const std::size_t threads : kThreadCounts) {
    opts.threads = threads;
    const OptimizeOutcome got = optimize_floorplan(tree, opts);
    ASSERT_FALSE(got.out_of_memory) << "threads=" << threads;
    EXPECT_EQ(serialize_artifacts(got), want_art) << "threads=" << threads;
    EXPECT_EQ(test::serialize_stats(got.stats), want_stats) << "threads=" << threads;
    EXPECT_EQ(serialize_placement(tree, got), want_place) << "threads=" << threads;
  }
}

WorkloadConfig small_config(std::uint64_t seed, std::size_t n) {
  WorkloadConfig cfg;
  cfg.seed = seed;
  cfg.impls_per_module = n;
  return cfg;
}

TEST(ParallelEquivalence, SinglePinwheelExact) {
  expect_equivalent(make_single_pinwheel(small_config(11, 8)), {});
}

TEST(ParallelEquivalence, SlicingChainExact) {
  expect_equivalent(make_slicing_chain(10, SliceDir::Vertical, true, small_config(5, 6)), {});
}

TEST(ParallelEquivalence, GridWithSelection) {
  OptimizerOptions opts;
  opts.selection.k1 = 8;
  opts.selection.k2 = 12;
  expect_equivalent(make_grid(3, 4, small_config(7, 6)), opts);
}

TEST(ParallelEquivalence, Fp1WithSelectionKnobs) {
  OptimizerOptions opts;
  opts.selection.k1 = 10;
  opts.selection.k2 = 16;
  opts.selection.theta = 0.8;
  opts.selection.heuristic_cap = 32;
  expect_equivalent(make_fp1(small_config(3, 5)), opts);
}

TEST(ParallelEquivalence, Fp1PerChainPruningL2) {
  OptimizerOptions opts;
  opts.selection.k1 = 12;
  opts.selection.k2 = 20;
  opts.selection.metric = LpMetric::L2;
  opts.l_pruning = LPruning::PerChain;
  expect_equivalent(make_fp1(small_config(9, 4)), opts);
}

TEST(ParallelEquivalence, RandomizedSeedsSweep) {
  for (std::uint64_t seed = 20; seed < 26; ++seed) {
    OptimizerOptions opts;
    opts.selection.k1 = 6 + seed % 5;
    opts.selection.k2 = 10 + seed % 7;
    SCOPED_TRACE("seed " + std::to_string(seed));
    expect_equivalent(make_single_pinwheel(small_config(seed, 5 + seed % 4),
                                           seed % 2 == 0 ? WheelChirality::Clockwise
                                                         : WheelChirality::CounterClockwise),
                      {});
  }
}

// ---- memory-budget (out-of-memory) equivalence -------------------------

// The abort decision is made against the *serial schedule's* peak of
// stored + transient implementations (stats.peak_live), whatever the
// thread count. Budget == peak_live must complete everywhere (the check
// is strict >); budget == peak_live - 1 must abort everywhere.
TEST(ParallelEquivalence, BudgetBoundaryExactlyMatchesSerial) {
  const FloorplanTree tree = make_single_pinwheel(small_config(13, 8));
  OptimizerOptions opts;  // exact mode: the run with the largest lists
  const OptimizeOutcome probe = optimize_floorplan(tree, opts);
  ASSERT_FALSE(probe.out_of_memory);
  const std::size_t peak = probe.stats.peak_live;
  ASSERT_GT(peak, 1u);

  for (const std::size_t threads : kThreadCounts) {
    opts.threads = threads;
    opts.impl_budget = peak;
    const OptimizeOutcome fits = optimize_floorplan(tree, opts);
    EXPECT_FALSE(fits.out_of_memory) << "threads=" << threads << " budget=" << peak;
    opts.impl_budget = peak - 1;
    const OptimizeOutcome aborts = optimize_floorplan(tree, opts);
    EXPECT_TRUE(aborts.out_of_memory) << "threads=" << threads << " budget=" << peak - 1;
    EXPECT_EQ(aborts.best_area, 0);
    EXPECT_EQ(aborts.artifacts, nullptr);
  }
}

TEST(ParallelEquivalence, BudgetAbortAgreesAcrossWorkloads) {
  // Sweep several budgets per workload (some aborting, some not) and
  // require the identical out_of_memory verdict at every thread count;
  // completing runs must also agree on the full artifacts.
  struct Case {
    FloorplanTree tree;
    OptimizerOptions opts;
  };
  std::vector<Case> cases;
  cases.push_back({make_grid(3, 3, small_config(17, 6)), {}});
  {
    OptimizerOptions sel;
    sel.selection.k1 = 8;
    sel.selection.k2 = 12;
    cases.push_back({make_fp1(small_config(19, 4)), sel});
  }
  for (Case& c : cases) {
    c.opts.impl_budget = 0;
    c.opts.threads = 0;
    const OptimizeOutcome probe = optimize_floorplan(c.tree, c.opts);
    ASSERT_FALSE(probe.out_of_memory);
    const std::size_t peak = probe.stats.peak_live;
    const std::size_t budgets[] = {peak, peak - 1, peak / 2, peak + 100, 2};
    for (const std::size_t budget : budgets) {
      c.opts.impl_budget = budget;
      c.opts.threads = 0;
      const OptimizeOutcome serial = optimize_floorplan(c.tree, c.opts);
      const std::string want =
          serial.out_of_memory ? std::string() : serialize_artifacts(serial);
      for (const std::size_t threads : kThreadCounts) {
        c.opts.threads = threads;
        const OptimizeOutcome got = optimize_floorplan(c.tree, c.opts);
        EXPECT_EQ(got.out_of_memory, serial.out_of_memory)
            << "threads=" << threads << " budget=" << budget;
        if (!serial.out_of_memory && !got.out_of_memory) {
          EXPECT_EQ(serialize_artifacts(got), want)
              << "threads=" << threads << " budget=" << budget;
        }
      }
    }
  }
}

// ---- run-report telemetry under the pool schedule ----------------------

RunReportDoc report_of(const OptimizeOutcome& out) {
  telemetry::RunReport report("fpopt_tests", "parallel-equivalence");
  report_optimizer(report, out);
  const telemetry::JsonParseResult parsed = telemetry::parse_json(report.to_json(true));
  EXPECT_TRUE(parsed.value.has_value()) << parsed.error;
  return {report.counters(), parsed.value ? *parsed.value : telemetry::JsonValue{}};
}

TEST(ParallelEquivalence, RunReportCountersMatchSerialAtEveryThreadCount) {
  const FloorplanTree tree = make_fp1(small_config(3, 5));
  OptimizerOptions opts;
  opts.selection.k1 = 8;
  opts.selection.k2 = 12;
  opts.threads = 0;
  const RunReportDoc want = report_of(optimize_floorplan(tree, opts));
  EXPECT_TRUE(telemetry::validate_run_report(want.doc).empty());
  for (const std::size_t threads : kThreadCounts) {
    opts.threads = threads;
    const RunReportDoc got = report_of(optimize_floorplan(tree, opts));
    EXPECT_EQ(got.counters, want.counters)
        << "threads=" << threads
        << ": parallel counter sums must equal the serial run's counters";
    EXPECT_TRUE(telemetry::validate_run_report(got.doc).empty()) << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, AbortedRunReportIsWellFormedAtEveryThreadCount) {
  const FloorplanTree tree = make_single_pinwheel(small_config(13, 8));
  OptimizerOptions opts;
  const OptimizeOutcome probe = optimize_floorplan(tree, opts);
  ASSERT_FALSE(probe.out_of_memory);
  opts.impl_budget = probe.stats.peak_live - 1;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    opts.threads = threads;
    const OptimizeOutcome aborted = optimize_floorplan(tree, opts);
    ASSERT_TRUE(aborted.out_of_memory) << "threads=" << threads;
    const RunReportDoc doc = report_of(aborted);
    // Partial counters are schedule-dependent by design; the report must
    // still be schema-valid and carry the aborted flag.
    const std::vector<std::string> errors = telemetry::validate_run_report(doc.doc);
    EXPECT_TRUE(errors.empty())
        << "threads=" << threads << ": " << (errors.empty() ? "" : errors.front());
    const telemetry::JsonValue* flag = doc.doc.find("fpopt_run_report")->find("aborted");
    ASSERT_NE(flag, nullptr) << "threads=" << threads;
    EXPECT_TRUE(flag->boolean) << "threads=" << threads;
  }
}

TEST(ParallelEquivalence, SerialPeakLiveMatchesTrackerPeaks) {
  // peak_live is the budget-check quantity: it must dominate both
  // component peaks and never be smaller than final_stored.
  const FloorplanTree tree = make_grid(2, 3, small_config(23, 8));
  for (const std::size_t threads : kThreadCounts) {
    OptimizerOptions opts;
    opts.threads = threads;
    const OptimizeOutcome out = optimize_floorplan(tree, opts);
    ASSERT_FALSE(out.out_of_memory);
    EXPECT_GE(out.stats.peak_live, out.stats.peak_stored);
    EXPECT_GE(out.stats.peak_live, out.stats.peak_transient);
    EXPECT_GE(out.stats.peak_stored, out.stats.final_stored);
  }
}

}  // namespace
}  // namespace fpopt
