// Cross-module integration and invariant tests: determinism, budget
// accounting, serialization fuzzing, soft modules inside the optimizer,
// and pruning-policy independence of the exact result.
#include <gtest/gtest.h>

#include <functional>

#include "core/soft_module.h"
#include "floorplan/serialize.h"
#include "optimize/optimizer.h"
#include "optimize/placement.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

TEST(DeterminismTest, IdenticalRunsProduceIdenticalResults) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 10;
  cfg.seed = 77;
  const FloorplanTree tree = make_fp1(cfg);
  OptimizerOptions opts;
  opts.selection.k1 = 15;
  opts.selection.k2 = 90;

  const OptimizeOutcome a = optimize_floorplan(tree, opts);
  const OptimizeOutcome b = optimize_floorplan(tree, opts);
  ASSERT_FALSE(a.out_of_memory);
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.best_area, b.best_area);
  EXPECT_EQ(a.stats.peak_stored, b.stats.peak_stored);
  EXPECT_EQ(a.stats.total_generated, b.stats.total_generated);
  const Placement pa = trace_placement(tree, a, 0);
  const Placement pb = trace_placement(tree, b, 0);
  ASSERT_EQ(pa.rooms.size(), pb.rooms.size());
  for (std::size_t i = 0; i < pa.rooms.size(); ++i) {
    EXPECT_EQ(pa.rooms[i].room, pb.rooms[i].room);
  }
}

TEST(BudgetAccountingTest, FinalStoredEqualsTheSumOfRetainedLists) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 8;
  cfg.seed = 13;
  const FloorplanTree tree = make_fp1(cfg);
  for (const std::size_t k1 : {std::size_t{0}, std::size_t{10}}) {
    OptimizerOptions opts;
    opts.selection.k1 = k1;
    opts.selection.k2 = k1 == 0 ? 0 : 60;
    const OptimizeOutcome out = optimize_floorplan(tree, opts);
    ASSERT_FALSE(out.out_of_memory);
    std::size_t total = 0;
    for (const auto& res : out.artifacts->nodes) {
      total += res->is_l ? res->lset.total_size() : res->rlist.size();
    }
    EXPECT_EQ(out.stats.final_stored, total) << "k1=" << k1;
    EXPECT_GE(out.stats.peak_stored, out.stats.final_stored);
  }
}

TEST(SerializeFuzzTest, RandomTreesRoundTrip) {
  Pcg32 rng(31337);
  for (int iter = 0; iter < 60; ++iter) {
    // Grow a random tree with ~12 leaves.
    std::size_t next_id = 0;
    const std::function<std::unique_ptr<FloorplanNode>(int)> grow =
        [&](int depth) -> std::unique_ptr<FloorplanNode> {
      const std::uint32_t roll = rng.below(10);
      if (depth >= 3 || roll < 4) return FloorplanNode::leaf(next_id++);
      if (roll < 8) {
        std::vector<std::unique_ptr<FloorplanNode>> ch;
        const std::size_t n = 2 + rng.below(3);
        for (std::size_t i = 0; i < n; ++i) ch.push_back(grow(depth + 1));
        return FloorplanNode::slice(
            rng.below(2) == 0 ? SliceDir::Vertical : SliceDir::Horizontal, std::move(ch));
      }
      std::array<std::unique_ptr<FloorplanNode>, kWheelArity> ch;
      for (auto& c : ch) c = grow(depth + 1);
      return FloorplanNode::wheel(
          rng.below(2) == 0 ? WheelChirality::Clockwise : WheelChirality::CounterClockwise,
          std::move(ch));
    };
    auto root = grow(0);
    if (next_id < 2) continue;

    std::vector<Module> modules;
    for (std::size_t i = 0; i < next_id; ++i) {
      modules.emplace_back("m" + std::to_string(i),
                           RList::from_candidates({{1 + static_cast<Dim>(rng.below(9)),
                                                    1 + static_cast<Dim>(rng.below(9))}}));
    }
    FloorplanTree tree(std::move(modules), std::move(root));
    ASSERT_TRUE(tree.validate().empty());

    const std::string topo = to_topology_string(tree);
    FloorplanTree again = parse_floorplan(topo, tree.modules());
    EXPECT_EQ(to_topology_string(again), topo);
    // Structural equality via stats + a full optimize agreement.
    EXPECT_EQ(again.stats().leaf_count, tree.stats().leaf_count);
    EXPECT_EQ(again.stats().wheel_count, tree.stats().wheel_count);
    const Area a = optimize_floorplan(tree, {}).best_area;
    const Area b = optimize_floorplan(again, {}).best_area;
    EXPECT_EQ(a, b);
  }
}

TEST(SoftModuleIntegrationTest, SoftModulesFlowThroughTheOptimizer) {
  // Section 6: continuous curves, sampled then reduced, as wheel children.
  std::vector<Module> modules;
  modules.push_back(make_soft_module("s0", 300, 6, 50, 12));
  modules.push_back(make_soft_module("s1", 200, 5, 40, 12));
  modules.push_back(make_soft_module("s2", 100, 4, 25, 12));
  modules.push_back(make_soft_module("s3", 250, 6, 45, 12));
  modules.push_back(make_soft_module("s4", 350, 7, 50, 12));

  FloorplanTree tree = parse_floorplan("(W s0 s1 s2 s3 s4)", std::move(modules));
  ASSERT_TRUE(tree.validate().empty());
  const OptimizeOutcome out = optimize_floorplan(tree, {});
  ASSERT_FALSE(out.out_of_memory);
  // The chip must be at least as large as the sum of module areas.
  EXPECT_GE(out.best_area, 300 + 200 + 100 + 250 + 350);
  const Placement p = trace_placement(tree, out, out.root.min_area_index());
  EXPECT_TRUE(validate_placement(p, tree).empty());
}

TEST(PruningPolicyTest, AllPoliciesAgreeOnTheExactResult) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 6;
  for (const std::uint64_t seed : {3u, 4u}) {
    cfg.seed = seed;
    const FloorplanTree tree = make_fp1(cfg);
    RList reference;
    for (const LPruning policy :
         {LPruning::PerChain, LPruning::GlobalAtNode, LPruning::GlobalEager}) {
      OptimizerOptions opts;
      opts.impl_budget = 0;
      opts.l_pruning = policy;
      const OptimizeOutcome out = optimize_floorplan(tree, opts);
      ASSERT_FALSE(out.out_of_memory);
      if (reference.empty()) {
        reference = out.root;
      } else {
        EXPECT_EQ(out.root, reference);
      }
    }
  }
}

TEST(PruningPolicyTest, MemoryOrderingHolds) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 8;
  cfg.seed = 5;
  const FloorplanTree tree = make_single_pinwheel(cfg);
  std::size_t peaks[3];
  int i = 0;
  for (const LPruning policy :
       {LPruning::PerChain, LPruning::GlobalAtNode, LPruning::GlobalEager}) {
    OptimizerOptions opts;
    opts.impl_budget = 0;
    opts.l_pruning = policy;
    peaks[i++] = optimize_floorplan(tree, opts).stats.peak_stored;
  }
  EXPECT_GE(peaks[0], peaks[1]) << "per-chain stores at least as much as global-at-node";
  EXPECT_GE(peaks[1], peaks[2]) << "global-at-node stores at least as much as eager";
}

TEST(StressTest, ManyRandomSmallTreesAllTileExactly) {
  Pcg32 rng(4242);
  WorkloadConfig cfg;
  cfg.impls_per_module = 4;
  for (int iter = 0; iter < 15; ++iter) {
    cfg.seed = 1000 + static_cast<std::uint64_t>(iter);
    const FloorplanTree tree =
        iter % 3 == 0   ? make_fp1(cfg)
        : iter % 3 == 1 ? make_grid(2 + rng.below(3), 2 + rng.below(4), cfg)
                        : make_single_pinwheel(cfg, iter % 2 == 0
                                                        ? WheelChirality::Clockwise
                                                        : WheelChirality::CounterClockwise);
    OptimizerOptions opts;
    opts.selection.k1 = 2 + rng.below(12);
    opts.selection.k2 = 10 + rng.below(80);
    const OptimizeOutcome out = optimize_floorplan(tree, opts);
    ASSERT_FALSE(out.out_of_memory);
    const Placement p = trace_placement(tree, out, out.root.min_area_index());
    const auto problems = validate_placement(p, tree);
    EXPECT_TRUE(problems.empty()) << (problems.empty() ? "" : problems.front());
  }
}

}  // namespace
}  // namespace fpopt
