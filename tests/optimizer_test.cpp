// Integration tests for the optimizer engine: agreement with Stockmeyer on
// slicing inputs, brute force on tiny floorplans, exactness of the wheel
// path, bounded-mode semantics, and the simulated memory budget.
#include <gtest/gtest.h>

#include "floorplan/serialize.h"
#include "test_util.h"
#include "optimize/optimizer.h"
#include "optimize/stockmeyer.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

OptimizerOptions exact_options() {
  OptimizerOptions o;
  o.impl_budget = 0;  // unlimited
  return o;
}

TEST(OptimizerTest, SingleModuleFloorplanIsItsBestImplementation) {
  // A one-leaf tree is not interesting but must still work via a slice of
  // two; use two modules.
  FloorplanTree tree = parse_floorplan("(V a b)", parse_module_library("a 2x3 3x2\nb 1x4 4x1\n"));
  const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(out.out_of_memory);
  // Candidates: widths sum, heights max. Best: (3+4)x2=14? (3,2)+(4,1)->7x2=14;
  // (2,3)+(1,4) -> 3x4=12; (2,3)+(4,1)->6x3=18; (3,2)+(1,4)->4x4=16.
  EXPECT_EQ(out.best_area, 12);
}

TEST(OptimizerTest, MatchesStockmeyerOnSlicingTrees) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    WorkloadConfig cfg;
    cfg.impls_per_module = 6;
    cfg.seed = seed;
    for (const bool alternate : {false, true}) {
      const FloorplanTree tree = make_slicing_chain(9, SliceDir::Vertical, alternate, cfg);
      const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
      ASSERT_FALSE(out.out_of_memory);
      const auto oracle = stockmeyer_best_area(tree);
      ASSERT_TRUE(oracle.has_value());
      EXPECT_EQ(out.best_area, *oracle) << "seed " << seed;
      // Full root curves agree as well.
      EXPECT_EQ(out.root, *stockmeyer_shape_curve(tree));
    }
  }
}

TEST(OptimizerTest, MatchesStockmeyerOnGrids) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 4;
  for (const std::uint64_t seed : {7u, 8u}) {
    cfg.seed = seed;
    const FloorplanTree tree = make_grid(3, 4, cfg);
    const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
    ASSERT_FALSE(out.out_of_memory);
    EXPECT_EQ(out.best_area, stockmeyer_best_area(tree).value());
  }
}

/// Brute-force minimal area of a single pinwheel by trying all 5-tuples.
Area brute_force_pinwheel(const FloorplanTree& tree) {
  const auto& m = tree.modules();
  Area best = std::numeric_limits<Area>::max();
  for (const RectImpl& d : m[0].impls)
    for (const RectImpl& a : m[1].impls)
      for (const RectImpl& e : m[2].impls)
        for (const RectImpl& c : m[3].impls)
          for (const RectImpl& b : m[4].impls) {
            const Dim x2 = std::max(d.w, a.w + e.w);
            const Dim y2 = std::max(c.h, d.h + e.h);
            const Dim w = std::max(x2 + c.w, a.w + b.w);
            const Dim h = std::max(y2 + b.h, d.h + a.h);
            best = std::min(best, w * h);
          }
  return best;
}

TEST(OptimizerTest, PinwheelMatchesBruteForceBothChiralities) {
  for (const std::uint64_t seed : {11u, 12u, 13u, 14u, 15u}) {
    WorkloadConfig cfg;
    cfg.impls_per_module = 5;
    cfg.seed = seed;
    for (const WheelChirality chir :
         {WheelChirality::Clockwise, WheelChirality::CounterClockwise}) {
      const FloorplanTree tree = make_single_pinwheel(cfg, chir);
      const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
      ASSERT_FALSE(out.out_of_memory);
      EXPECT_EQ(out.best_area, brute_force_pinwheel(tree)) << "seed " << seed;
    }
  }
}

TEST(OptimizerTest, MixedWheelAndSliceTreeMatchesBruteForce) {
  // 7 modules, 3 impls each: 3^7 = 2187 assignments.
  const char* lib =
      "a 4x2 3x3 2x5\nb 5x1 3x2 1x6\nc 2x2 1x4 4x1\nd 3x3 2x4 5x2\n"
      "e 2x6 4x3 6x2\nf 1x3 2x2 3x1\ng 2x4 3x3 5x2\n";
  for (const char* topo : {"(W (V a b) c d e (H f g))", "(M a (H b c) d (V e f) g)",
                           "(V a (W b c d e f) g)", "(H (W a b c d e) (V f g))"}) {
    FloorplanTree tree = parse_floorplan(topo, parse_module_library(lib));
    const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
    ASSERT_FALSE(out.out_of_memory) << topo;
    EXPECT_EQ(out.best_area, test::brute_force_tree_area(tree)) << topo;
  }
}

TEST(OptimizerTest, NestedWheelsMatchBruteForce) {
  const char* lib =
      "a 3x2 2x3\nb 2x2 1x4\nc 4x1 2x2\nd 1x3 3x1\ne 2x4 4x2\n"
      "f 3x3 2x4\ng 1x2 2x1\nh 2x2 3x1\ni 4x2 2x3\n";
  FloorplanTree tree =
      parse_floorplan("(W (W a b c d e) f g h i)", parse_module_library(lib));
  const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(out.out_of_memory);
  EXPECT_EQ(out.best_area, test::brute_force_tree_area(tree));
}

TEST(OptimizerTest, BoundedModeNeverBeatsExactAndConvergesWithK) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 8;
  cfg.seed = 5;
  const FloorplanTree tree = make_single_pinwheel(cfg);
  const OptimizeOutcome exact = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(exact.out_of_memory);

  Area prev = std::numeric_limits<Area>::max();
  for (const std::size_t k : {3u, 6u, 12u, 200u}) {
    OptimizerOptions o = exact_options();
    o.selection.k1 = k;
    o.selection.k2 = 4 * k;
    const OptimizeOutcome bounded = optimize_floorplan(tree, o);
    ASSERT_FALSE(bounded.out_of_memory);
    EXPECT_GE(bounded.best_area, exact.best_area) << "selection is a relaxation, never a win";
    prev = std::min(prev, bounded.best_area);
  }
  // With generous limits the answer is exact again.
  OptimizerOptions generous = exact_options();
  generous.selection.k1 = 10'000;
  generous.selection.k2 = 100'000;
  EXPECT_EQ(optimize_floorplan(tree, generous).best_area, exact.best_area);
}

TEST(OptimizerTest, BoundedModeReducesPeakMemory) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 12;
  cfg.seed = 9;
  const FloorplanTree tree = make_fp1(cfg);

  const OptimizeOutcome exact = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(exact.out_of_memory);

  OptimizerOptions bounded = exact_options();
  bounded.selection.k1 = 10;
  bounded.selection.k2 = 60;
  const OptimizeOutcome small = optimize_floorplan(tree, bounded);
  ASSERT_FALSE(small.out_of_memory);
  EXPECT_LT(small.stats.peak_stored, exact.stats.peak_stored);
  EXPECT_GT(small.stats.r_selection_calls + small.stats.l_selection_calls, 0u);
  EXPECT_GE(small.best_area, exact.best_area);
}

TEST(OptimizerTest, MemoryBudgetAbortsLikeTheSparc) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 12;
  cfg.seed = 9;
  const FloorplanTree tree = make_fp1(cfg);
  OptimizerOptions tight;
  tight.impl_budget = 2'000;
  const OptimizeOutcome out = optimize_floorplan(tree, tight);
  EXPECT_TRUE(out.out_of_memory);
  EXPECT_EQ(out.artifacts, nullptr);
  EXPECT_EQ(out.best_area, 0);
  EXPECT_GT(out.stats.peak_stored + out.stats.peak_transient, 0u);
  // The run stops where [9]'s single counter of live implementations
  // does. These are the abort-time stats of an engine that threaded one
  // BudgetTracker through the whole postorder run.
  EXPECT_EQ(out.stats.nodes_evaluated, 7u);
  EXPECT_EQ(out.stats.total_generated, 3'519u);
  EXPECT_EQ(out.stats.peak_stored, 1'978u);
  EXPECT_EQ(out.stats.peak_transient, 21u);
  EXPECT_EQ(out.stats.peak_live, 1'991u);
  EXPECT_EQ(out.stats.final_stored, 1'978u);
}

TEST(OptimizerTest, SelectionRescuesABudgetThatExactModeBusts) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 12;
  cfg.seed = 9;
  const FloorplanTree tree = make_fp1(cfg);

  OptimizerOptions tight;
  tight.impl_budget = 8'000;
  ASSERT_TRUE(optimize_floorplan(tree, tight).out_of_memory);

  tight.selection.k1 = 12;
  tight.selection.k2 = 80;
  tight.selection.theta = 1.0;
  const OptimizeOutcome rescued = optimize_floorplan(tree, tight);
  EXPECT_FALSE(rescued.out_of_memory)
      << "the paper's headline: selection makes infeasible instances feasible";
  EXPECT_GT(rescued.best_area, 0);
}

TEST(OptimizerTest, ExactAreaIndependentOfSliceRestructureShape) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 5;
  cfg.seed = 21;
  const FloorplanTree tree = make_grid(4, 4, cfg);
  OptimizerOptions left_deep = exact_options();
  OptimizerOptions balanced = exact_options();
  balanced.restructure.balanced_slices = true;
  const OptimizeOutcome a = optimize_floorplan(tree, left_deep);
  const OptimizeOutcome b = optimize_floorplan(tree, balanced);
  EXPECT_EQ(a.best_area, b.best_area);
  EXPECT_EQ(a.root, b.root);
}

TEST(OptimizerTest, RootCurveIsIrreducible) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 6;
  cfg.seed = 2;
  const FloorplanTree tree = make_fp1(cfg);
  const OptimizeOutcome out = optimize_floorplan(tree, exact_options());
  ASSERT_FALSE(out.out_of_memory);
  EXPECT_TRUE(is_irreducible_r_list(out.root.impls()));
  EXPECT_GT(out.root.size(), 1u);
}

}  // namespace
}  // namespace fpopt
