// Randomized property tests (satellite of the invariant-audit PR): fuzz the
// pruning, combine and selection kernels with Pcg32-generated inputs and
// assert that (a) every produced artifact passes the src/check/ validators
// and (b) selection errors match the independent geometric oracles.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "check/check_certificate.h"
#include "check/check_shapes.h"
#include "core/l_selection.h"
#include "core/r_selection.h"
#include "geometry/staircase.h"
#include "optimize/combine.h"
#include "optimize/optimizer.h"
#include "shape/r_list.h"
#include "test_util.h"
#include "workload/floorplans.h"
#include "workload/rng.h"

namespace fpopt {
namespace {

using test::random_l_chain;
using test::random_r_list;

Dim random_dim(Pcg32& rng, std::uint32_t lo, std::uint32_t hi) {
  return static_cast<Dim>(lo + rng.below(hi - lo + 1));
}

TEST(PruneFuzzTest, FromCandidatesIsIrreducibleAndCoversEveryCandidate) {
  Pcg32 rng(101);
  for (int iter = 0; iter < 50; ++iter) {
    const std::size_t n = 1 + rng.below(40);
    std::vector<RectImpl> cands(n);
    for (RectImpl& c : cands) c = {random_dim(rng, 1, 60), random_dim(rng, 1, 60)};
    // Sprinkle in exact duplicates.
    for (std::size_t i = 0; i + 1 < n && rng.below(4) == 0; i += 2) cands[i + 1] = cands[i];

    const RList list = RList::from_candidates(cands);
    const CheckResult res = check_r_list(list);
    ASSERT_TRUE(res.ok()) << res.report();

    // Dominance pruning must not lose coverage: every candidate is on or
    // above the staircase of the pruned list.
    for (const RectImpl& c : cands) {
      const std::optional<Dim> h = list.min_height_at(c.w);
      ASSERT_TRUE(h.has_value());
      EXPECT_LE(*h, c.h);
    }

    // And the kept subset really came from the candidate set.
    const std::vector<std::size_t> kept = prune_rect_candidates(cands);
    ASSERT_EQ(kept.size(), list.size());
    for (std::size_t i = 0; i < kept.size(); ++i) {
      EXPECT_EQ(cands[kept[i]], list[i]);
    }
  }
}

TEST(CombineFuzzTest, SliceMatchesNaiveAndChecksClean) {
  Pcg32 rng(202);
  BudgetTracker budget(0);
  for (int iter = 0; iter < 40; ++iter) {
    const RList a = random_r_list(1 + rng.below(12), rng);
    const RList b = random_r_list(1 + rng.below(12), rng);
    for (const bool horizontal : {false, true}) {
      OptimizerStats stats;
      const RCombineResult fast = combine_slice(a, b, horizontal, budget, stats);
      const RCombineResult naive = combine_slice_naive(a, b, horizontal, budget, stats);
      EXPECT_EQ(fast.list, naive.list);
      EXPECT_EQ(fast.prov.size(), fast.list.size());
      const CheckResult res = check_r_list(fast.list, "combine_slice");
      EXPECT_TRUE(res.ok()) << res.report();
    }
  }
}

TEST(CombineFuzzTest, WheelPipelineChecksCleanUnderEveryPruningMode) {
  Pcg32 rng(303);
  BudgetTracker budget(0);
  for (int iter = 0; iter < 12; ++iter) {
    const RList d = random_r_list(2 + rng.below(5), rng);
    const RList a = random_r_list(2 + rng.below(5), rng);
    const RList e = random_r_list(2 + rng.below(5), rng);
    const RList c = random_r_list(2 + rng.below(5), rng);
    const RList b = random_r_list(2 + rng.below(5), rng);
    for (const LPruning pruning :
         {LPruning::PerChain, LPruning::GlobalAtNode, LPruning::GlobalEager}) {
      OptimizerStats stats;
      const bool cross = pruning != LPruning::PerChain;
      // Raw combine output is only per-chain irreducible; the optimizer
      // removes cross-chain redundancy at store time via canonicalize().
      // Mirror that contract here.
      const auto settle = [&](LCombineResult&& out, const char* where) {
        if (cross) out.set.canonicalize();
        const CheckResult res = check_l_list_set(out.set, cross, where);
        EXPECT_TRUE(res.ok()) << res.report();
        return std::move(out);
      };

      const LCombineResult stacked =
          settle(combine_wheel_stack(d, a, pruning, budget, stats), "wheel-stack");
      const LCombineResult notched =
          settle(combine_wheel_fill_notch(stacked.set, e, pruning, budget, stats),
                 "wheel-fill-notch");
      const LCombineResult extended =
          settle(combine_wheel_extend(notched.set, c, pruning, budget, stats),
                 "wheel-extend");

      const RCombineResult closed = combine_wheel_close(extended.set, b, budget, stats);
      const CheckResult res = check_r_list(closed.list, "wheel-close");
      ASSERT_TRUE(res.ok()) << res.report();
      EXPECT_EQ(closed.prov.size(), closed.list.size());
      EXPECT_FALSE(closed.list.empty());
    }
  }
}

TEST(SelectionFuzzTest, RSelectionErrorMatchesGeometricOracle) {
  Pcg32 rng(404);
  for (int iter = 0; iter < 40; ++iter) {
    const std::size_t n = 4 + rng.below(20);
    const RList list = random_r_list(n, rng);
    const std::size_t k = 2 + rng.below(static_cast<std::uint32_t>(n - 1));
    for (const SelectionDp dp : {SelectionDp::Generic, SelectionDp::Monge}) {
      const SelectionResult sel = r_selection(list, k, dp);
      ASSERT_EQ(sel.kept.size(), std::min(k, n));
      EXPECT_EQ(sel.error,
                static_cast<Weight>(staircase_subset_error(list.impls(), sel.kept)));
      const CheckResult res = check_selection_certificate(list, sel, k);
      EXPECT_TRUE(res.ok()) << res.report();
    }
  }
}

TEST(SelectionFuzzTest, RSelectionIsOptimalOnSmallLists) {
  Pcg32 rng(505);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t n = 5 + rng.below(5);  // 5..9
    const RList list = random_r_list(n, rng);
    const std::size_t k = 3 + rng.below(2);  // 3..4
    const SelectionResult sel = r_selection(list, k);
    Weight best = kInfiniteWeight;
    test::for_each_endpoint_subset(n, k, [&](const std::vector<std::size_t>& kept) {
      best = std::min(best, static_cast<Weight>(staircase_subset_error(list.impls(), kept)));
    });
    EXPECT_EQ(sel.error, best);
  }
}

TEST(SelectionFuzzTest, LSelectionCertifiesAndIsOptimalOnSmallChains) {
  Pcg32 rng(606);
  for (int iter = 0; iter < 15; ++iter) {
    const std::size_t n = 5 + rng.below(5);  // 5..9
    const LList chain = random_l_chain(n, rng);
    std::vector<LImpl> shapes;
    for (const LEntry& entry : chain) shapes.push_back(entry.shape);
    const std::size_t k = 3 + rng.below(2);  // 3..4
    for (const LpMetric metric : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
      LSelectionOptions opts;
      opts.metric = metric;
      const SelectionResult sel = l_selection(chain, k, opts);
      ASSERT_EQ(sel.kept.size(), k);
      const CheckResult res = check_l_selection_certificate(chain, sel, k, metric);
      EXPECT_TRUE(res.ok()) << res.report();

      // Optimality against the definition-level brute force (which uses
      // the whole kept set, not the Lemma-3 neighbor shortcut).
      Weight best = kInfiniteWeight;
      test::for_each_endpoint_subset(n, k, [&](const std::vector<std::size_t>& kept) {
        best = std::min(best, test::brute_force_l_error(shapes, kept, metric));
      });
      EXPECT_NEAR(sel.error, best, 1e-6 * std::max<Weight>(1.0, best));
    }
  }
}

TEST(SelectionFuzzTest, LSelectionAutoAgreesWithGenericOnL1) {
  Pcg32 rng(707);
  for (int iter = 0; iter < 25; ++iter) {
    const std::size_t n = 4 + rng.below(20);
    const LList chain = random_l_chain(n, rng);
    const std::size_t k = 2 + rng.below(static_cast<std::uint32_t>(n - 1));
    LSelectionOptions generic;
    generic.dp = SelectionDp::Generic;
    LSelectionOptions fast;
    fast.dp = SelectionDp::Auto;
    const SelectionResult g = l_selection(chain, k, generic);
    const SelectionResult f = l_selection(chain, k, fast);
    EXPECT_EQ(f.error, g.error);
    const CheckResult res = check_l_selection_certificate(chain, f, k, LpMetric::L1);
    EXPECT_TRUE(res.ok()) << res.report();
  }
}

TEST(SelectionFuzzTest, KeepEverythingContract) {
  Pcg32 rng(808);
  const RList list = random_r_list(6, rng);
  for (const std::size_t k : {std::size_t{0}, std::size_t{6}, std::size_t{99}}) {
    const SelectionResult sel = r_selection(list, k);
    EXPECT_EQ(sel.kept.size(), list.size());
    EXPECT_EQ(sel.error, 0);
    EXPECT_TRUE(check_selection_certificate(list, sel, k).ok());
  }
  const LList chain = random_l_chain(6, rng);
  const SelectionResult sel = l_selection(chain, 0);
  EXPECT_EQ(sel.kept.size(), chain.size());
  EXPECT_EQ(sel.error, 0);
  EXPECT_TRUE(check_l_selection_certificate(chain, sel, 0, LpMetric::L1).ok());
}

TEST(SelectionFuzzTest, LSelectionCertifiesEveryMetricOnRandomChains) {
  Pcg32 rng(1010);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 4 + rng.below(24);
    const LList chain = random_l_chain(n, rng);
    const std::size_t k = 2 + rng.below(static_cast<std::uint32_t>(n - 1));
    for (const LpMetric metric : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
      LSelectionOptions opts;
      opts.metric = metric;
      const SelectionResult sel = l_selection(chain, k, opts);
      const CheckResult res = check_l_selection_certificate(chain, sel, k, metric);
      EXPECT_TRUE(res.ok()) << res.report();
    }
  }
}

// ---- parallel optimize fuzz ----------------------------------------------

TEST(ParallelFuzzTest, ParallelOptimizeArtifactsValidate) {
  // End-to-end fuzz of the parallel combine/selection store paths: random
  // small workloads through the engine's pool schedule. Under FPOPT_VALIDATE
  // every stored node list is checked inside the optimizer itself; here we
  // additionally require serial/parallel artifact equality.
  Pcg32 rng(1212);
  for (int iter = 0; iter < 6; ++iter) {
    WorkloadConfig cfg;
    cfg.seed = 3000 + static_cast<std::uint64_t>(iter);
    cfg.impls_per_module = 3 + rng.below(4);
    const FloorplanTree tree = iter % 2 == 0
                                   ? make_single_pinwheel(cfg)
                                   : make_grid(2, 2 + static_cast<std::size_t>(iter) % 3, cfg);
    OptimizerOptions opts;
    opts.selection.k1 = 4 + rng.below(6);
    opts.selection.k2 = 6 + rng.below(8);
    const OptimizeOutcome serial = optimize_floorplan(tree, opts);
    opts.threads = 2 + rng.below(3);
    const OptimizeOutcome parallel = optimize_floorplan(tree, opts);
    ASSERT_FALSE(serial.out_of_memory);
    ASSERT_FALSE(parallel.out_of_memory);
    EXPECT_EQ(parallel.best_area, serial.best_area);
    ASSERT_EQ(parallel.artifacts->nodes.size(), serial.artifacts->nodes.size());
    for (std::size_t id = 0; id < serial.artifacts->nodes.size(); ++id) {
      const NodeResult& s = *serial.artifacts->nodes[id];
      const NodeResult& p = *parallel.artifacts->nodes[id];
      EXPECT_EQ(p.is_l, s.is_l) << "node " << id;
      EXPECT_EQ(p.rlist, s.rlist) << "node " << id;
      EXPECT_EQ(p.rprov, s.rprov) << "node " << id;
      EXPECT_EQ(p.lset, s.lset) << "node " << id;
      EXPECT_EQ(p.lprov, s.lprov) << "node " << id;
    }
  }
}

// ---- row-shape fuzz ------------------------------------------------------
//
// Drive the combine/selection surfaces with the shapes their row loops
// care about — one-module lists (rows of length 1), equal-area ties (the
// argmin tie-break) and long lists (rows of hundreds of entries as the
// DP layer bounds shift) — and check every result against the
// independent validators. Generic and Monge must reach the same optimal
// error; ties may let them keep different positions.

TEST(KernelFuzzTest, DegenerateOneModuleWheelChainIsIrreducible) {
  Pcg32 rng(1313);
  BudgetTracker budget(0);
  for (int iter = 0; iter < 10; ++iter) {
    const RList d = random_r_list(1, rng);
    const RList a = random_r_list(1, rng);
    const RList e = random_r_list(1, rng);
    const RList c = random_r_list(1, rng);
    const RList b = random_r_list(1, rng);
    OptimizerStats stats;
    const LCombineResult stacked = combine_wheel_stack(d, a, LPruning::PerChain, budget, stats);
    const LCombineResult notched =
        combine_wheel_fill_notch(stacked.set, e, LPruning::PerChain, budget, stats);
    const LCombineResult extended =
        combine_wheel_extend(notched.set, c, LPruning::PerChain, budget, stats);
    const RCombineResult closed = combine_wheel_close(extended.set, b, budget, stats);
    const RCombineResult sliced = combine_slice(a, b, iter % 2 == 0, budget, stats);
    std::vector<RectImpl> all(closed.list.begin(), closed.list.end());
    all.insert(all.end(), sliced.list.begin(), sliced.list.end());
    const RList merged = RList::from_candidates(std::move(all));
    EXPECT_TRUE(check_r_list(merged, "kernel-fuzz-degenerate").ok());
  }
}

TEST(KernelFuzzTest, EqualAreaTiesAgreeAcrossDps) {
  // Staircase whose corners share areas pairwise (24 = 12x2 = 8x3 = 6x4 =
  // 4x6 = 3x8 = 2x12): every argmin in selection runs into value ties.
  const RList list = RList::from_sorted_unchecked(
      std::vector<RectImpl>{{12, 2}, {8, 3}, {6, 4}, {4, 6}, {3, 8}, {2, 12}});
  for (const std::size_t k : {std::size_t{2}, std::size_t{3}, std::size_t{4}}) {
    const SelectionResult generic = r_selection(list, k, SelectionDp::Generic);
    const SelectionResult monge = r_selection(list, k, SelectionDp::Monge);
    EXPECT_EQ(generic.error, monge.error) << "k=" << k;
    EXPECT_TRUE(check_selection_certificate(list, generic, k).ok()) << "k=" << k;
    EXPECT_TRUE(check_selection_certificate(list, monge, k).ok()) << "k=" << k;
  }
}

TEST(KernelFuzzTest, LongListsAgreeAcrossDps) {
  Pcg32 rng(1414);
  BudgetTracker budget(0);
  const RList list = random_r_list(512, rng, 3);
  const LList chain = random_l_chain(300, rng, 3);
  const SelectionResult r_generic = r_selection(list, 16, SelectionDp::Generic);
  const SelectionResult r_monge = r_selection(list, 16, SelectionDp::Monge);
  EXPECT_EQ(r_generic.error, r_monge.error);
  EXPECT_TRUE(check_selection_certificate(list, r_generic, 16).ok());
  EXPECT_TRUE(check_selection_certificate(list, r_monge, 16).ok());

  LSelectionOptions lopts;
  lopts.dp = SelectionDp::Generic;
  const SelectionResult l_generic = l_selection(chain, 11, lopts);
  lopts.dp = SelectionDp::Monge;
  const SelectionResult l_monge = l_selection(chain, 11, lopts);
  EXPECT_EQ(l_generic.error, l_monge.error);
  EXPECT_TRUE(check_l_selection_certificate(chain, l_generic, 11, lopts.metric).ok());
  EXPECT_TRUE(check_l_selection_certificate(chain, l_monge, 11, lopts.metric).ok());

  const RList a = random_r_list(200, rng, 3);
  const RList b = random_r_list(200, rng, 3);
  OptimizerStats stats;
  const RCombineResult sliced = combine_slice(a, b, false, budget, stats);
  EXPECT_TRUE(check_r_list(sliced.list, "kernel-fuzz-long").ok());
}

}  // namespace
}  // namespace fpopt
