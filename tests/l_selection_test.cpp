// Tests for L_Selection and the Section 5 policy (per-list budgets, the
// theta trigger, and the heuristic S cap).
#include <gtest/gtest.h>

#include <tuple>

#include "core/l_selection.h"
#include "test_util.h"

namespace fpopt {
namespace {

TEST(LSelectionTest, NoLimitKeepsEverything) {
  Pcg32 rng(1);
  const LList chain = test::random_l_chain(6, rng);
  for (const std::size_t k : {std::size_t{0}, std::size_t{6}, std::size_t{99}}) {
    const SelectionResult r = l_selection(chain, k);
    EXPECT_EQ(r.kept.size(), chain.size());
    EXPECT_EQ(r.error, 0);
  }
}

TEST(LSelectionTest, EndpointsAlwaysSurvive) {
  Pcg32 rng(2);
  for (int iter = 0; iter < 15; ++iter) {
    const LList chain = test::random_l_chain(10, rng);
    for (std::size_t k = 2; k < 10; ++k) {
      const SelectionResult r = l_selection(chain, k);
      ASSERT_EQ(r.kept.size(), k);
      EXPECT_EQ(r.kept.front(), 0u);
      EXPECT_EQ(r.kept.back(), chain.size() - 1);
    }
  }
}

class LSelectionBruteForceTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t, LpMetric>> {};

TEST_P(LSelectionBruteForceTest, OptimalAgainstAllSubsets) {
  const auto [n, k, metric] = GetParam();
  Pcg32 rng(7 + n * 13 + k);
  for (int iter = 0; iter < 6; ++iter) {
    const LList chain = test::random_l_chain(n, rng);
    const auto shapes = chain.shapes();
    Weight best = kInfiniteWeight;
    test::for_each_endpoint_subset(n, k, [&](const std::vector<std::size_t>& subset) {
      best = std::min(best, test::brute_force_l_error(shapes, subset, metric));
    });
    LSelectionOptions opts;
    opts.metric = metric;
    const SelectionResult r = l_selection(chain, k, opts);
    EXPECT_NEAR(r.error, best, 1e-9) << "n=" << n << " k=" << k;
    // The reported kept set really costs the reported error under the
    // original (no Lemma 3) definition.
    EXPECT_NEAR(test::brute_force_l_error(shapes, r.kept, metric), r.error, 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    L1, LSelectionBruteForceTest,
    ::testing::Values(std::tuple{4, 2, LpMetric::L1}, std::tuple{6, 3, LpMetric::L1},
                      std::tuple{8, 4, LpMetric::L1}, std::tuple{9, 6, LpMetric::L1},
                      std::tuple{10, 2, LpMetric::L1}, std::tuple{10, 8, LpMetric::L1}));

INSTANTIATE_TEST_SUITE_P(
    OtherMetrics, LSelectionBruteForceTest,
    ::testing::Values(std::tuple{6, 3, LpMetric::L2}, std::tuple{8, 4, LpMetric::L2},
                      std::tuple{6, 3, LpMetric::LInf}, std::tuple{8, 5, LpMetric::LInf},
                      std::tuple{9, 2, LpMetric::L2}, std::tuple{9, 7, LpMetric::LInf}));

TEST(LSelectionTest, MongeFastPathAgreesWithGenericDpOnLargeChains) {
  Pcg32 rng(21);
  for (int iter = 0; iter < 10; ++iter) {
    const LList chain = test::random_l_chain(60, rng);
    for (const std::size_t k : {std::size_t{2}, std::size_t{7}, std::size_t{25},
                                std::size_t{59}}) {
      LSelectionOptions monge;
      monge.dp = SelectionDp::Monge;
      LSelectionOptions generic;
      generic.dp = SelectionDp::Generic;
      EXPECT_EQ(l_selection(chain, k, monge).error, l_selection(chain, k, generic).error)
          << "k=" << k;
    }
  }
}

TEST(HeuristicSubsampleTest, EvenlySpacedWithEndpoints) {
  const auto idx = heuristic_subsample_indices(11, 5);
  EXPECT_EQ(idx, (std::vector<std::size_t>{0, 2, 5, 7, 10}));
  const auto all = heuristic_subsample_indices(4, 9);
  EXPECT_EQ(all, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(HeuristicSubsampleTest, StrictlyIncreasingForAllShapes) {
  for (std::size_t n = 2; n <= 40; ++n) {
    for (std::size_t target = 2; target <= n; ++target) {
      const auto idx = heuristic_subsample_indices(n, target);
      ASSERT_EQ(idx.size(), target);
      EXPECT_EQ(idx.front(), 0u);
      EXPECT_EQ(idx.back(), n - 1);
      for (std::size_t i = 1; i < idx.size(); ++i) EXPECT_LT(idx[i - 1], idx[i]);
    }
  }
}

TEST(GreedyDropTest, KeepsEndpointsAndTargetSize) {
  Pcg32 rng(51);
  for (int iter = 0; iter < 15; ++iter) {
    const LList chain = test::random_l_chain(30, rng);
    for (const std::size_t target : {std::size_t{2}, std::size_t{7}, std::size_t{29}}) {
      const auto kept = greedy_drop_indices(chain, target, LpMetric::L1);
      ASSERT_EQ(kept.size(), target);
      EXPECT_EQ(kept.front(), 0u);
      EXPECT_EQ(kept.back(), chain.size() - 1);
      for (std::size_t i = 1; i < kept.size(); ++i) EXPECT_LT(kept[i - 1], kept[i]);
    }
  }
}

TEST(GreedyDropTest, NeverBeatsOptimalAndWinsShallowReductions) {
  // Greedy marginal-cost dropping is near-optimal when few elements go
  // (the regime of the S cap, which only shaves the excess) but degrades
  // for deep reductions, where uniform coverage wins — both regimes are
  // pinned here and quantified in bench/ablation_theta_s.
  Pcg32 rng(53);
  int shallow_wins = 0;
  for (int iter = 0; iter < 25; ++iter) {
    const LList chain = test::random_l_chain(40, rng);
    const auto shapes = chain.shapes();
    for (const std::size_t k : {std::size_t{8}, std::size_t{32}}) {
      const Weight optimal = l_selection(chain, k).error;
      const Weight greedy = test::brute_force_l_error(
          shapes, greedy_drop_indices(chain, k, LpMetric::L1), LpMetric::L1);
      EXPECT_GE(greedy + 1e-9, optimal) << "k=" << k;
      if (k == 32) {
        const Weight uniform = test::brute_force_l_error(
            shapes, heuristic_subsample_indices(chain.size(), k), LpMetric::L1);
        if (greedy <= uniform) ++shallow_wins;
      }
    }
  }
  EXPECT_GE(shallow_wins, 20) << "greedy should beat uniform when dropping few elements";
}

TEST(GreedyDropTest, WorksAsTheTwoStageHeuristic) {
  Pcg32 rng(57);
  const LList original = test::random_l_chain(60, rng);
  LList uniform_chain = original;
  LList greedy_chain = original;
  LSelectionOptions uniform;
  uniform.heuristic_cap = 20;
  LSelectionOptions greedy = uniform;
  greedy.heuristic = LHeuristic::GreedyDrop;
  const Weight ue = reduce_l_list(uniform_chain, 8, uniform);
  const Weight ge = reduce_l_list(greedy_chain, 8, greedy);
  EXPECT_EQ(uniform_chain.size(), 8u);
  EXPECT_EQ(greedy_chain.size(), 8u);
  EXPECT_GT(ue, 0);
  EXPECT_GT(ge, 0);
}

TEST(ReduceLListTest, TwoStageReductionRespectsTheCap) {
  Pcg32 rng(31);
  LList chain = test::random_l_chain(50, rng);
  LSelectionOptions opts;
  opts.heuristic_cap = 20;
  const Weight err = reduce_l_list(chain, 8, opts);
  EXPECT_EQ(chain.size(), 8u);
  EXPECT_GT(err, 0);
}

TEST(ReduceLListTest, TwoStageErrorIsAtLeastOptimal) {
  Pcg32 rng(33);
  const LList original = test::random_l_chain(40, rng);
  LList capped = original;
  LSelectionOptions two_stage;
  two_stage.heuristic_cap = 12;
  const Weight staged = reduce_l_list(capped, 6, two_stage);

  LList direct = original;
  LSelectionOptions optimal;  // no cap
  const Weight best = reduce_l_list(direct, 6, optimal);
  EXPECT_GE(staged + 1e-9, best);
  EXPECT_EQ(capped.size(), 6u);
  EXPECT_EQ(direct.size(), 6u);
}

TEST(ReduceLSetTest, ThetaGatesTheReduction) {
  Pcg32 rng(41);
  LListSet set;
  set.add(test::random_l_chain(30, rng));
  set.add(test::random_l_chain(30, rng));
  // N = 60, K2 = 50: K2/N = 0.83. With theta = 0.5 the trigger fails.
  LReductionReport skipped = reduce_l_set(set, 50, 0.5);
  EXPECT_FALSE(skipped.triggered);
  EXPECT_EQ(set.total_size(), 60u);
  // With theta = 0.9 it fires.
  LReductionReport fired = reduce_l_set(set, 50, 0.9);
  EXPECT_TRUE(fired.triggered);
  EXPECT_LE(set.total_size(), 50u);
}

TEST(ReduceLSetTest, BudgetSplitsProportionally) {
  Pcg32 rng(43);
  LListSet set;
  set.add(test::random_l_chain(40, rng));
  set.add(test::random_l_chain(20, rng));
  set.add(test::random_l_chain(20, rng));
  // N = 80, K2 = 40 -> budgets 20 / 10 / 10.
  const LReductionReport report = reduce_l_set(set, 40, 1.0);
  ASSERT_TRUE(report.triggered);
  ASSERT_EQ(set.list_count(), 3u);
  EXPECT_EQ(set.lists()[0].size(), 20u);
  EXPECT_EQ(set.lists()[1].size(), 10u);
  EXPECT_EQ(set.lists()[2].size(), 10u);
  EXPECT_EQ(report.before, 80u);
  EXPECT_EQ(report.after, 40u);
}

TEST(ReduceLSetTest, TinyListsKeepAtLeastTwoEntries) {
  Pcg32 rng(47);
  LListSet set;
  set.add(test::random_l_chain(3, rng));
  set.add(test::random_l_chain(97, rng));
  // Budget for the 3-entry list would floor to 0; the policy floors at 2.
  const LReductionReport report = reduce_l_set(set, 10, 1.0);
  ASSERT_TRUE(report.triggered);
  EXPECT_GE(set.lists()[0].size(), 2u);
}

TEST(ReduceLSetTest, CountsSelectorRunsAndSumsErrorsInChainOrder) {
  Pcg32 rng(53);
  LListSet set;
  for (const std::size_t len : {2u, 3u, 30u, 97u}) set.add(test::random_l_chain(len, rng));
  // N = 132, K2 = 20 -> budgets 2 / 2 / 4 / 14: the 2-entry list is left
  // alone, and only the 97-entry list is longer than S = 50.
  for (const LpMetric metric : {LpMetric::L1, LpMetric::L2}) {
    LSelectionOptions opts;
    opts.metric = metric;
    opts.heuristic_cap = 50;
    LListSet reduced = set;
    const LReductionReport report = reduce_l_set(reduced, 20, 1.0, opts);
    ASSERT_TRUE(report.triggered);
    EXPECT_EQ(report.chains_reduced, 3u);
    EXPECT_EQ(report.cspp_calls, 3u);
    EXPECT_EQ(report.cspp_monge_calls, metric == LpMetric::L1 ? 3u : 0u);
    EXPECT_EQ(report.heuristic_prereductions, 1u);

    Weight expect = 0;
    for (std::size_t i = 0; i < set.list_count(); ++i) {
      LList chain = set.lists()[i];
      const std::size_t budget = std::max<std::size_t>(2, 20 * chain.size() / 132);
      expect += reduce_l_list(chain, budget, opts);
      EXPECT_EQ(reduced.lists()[i], chain) << "chain " << i;
    }
    EXPECT_EQ(report.total_error, expect);
  }
}

TEST(ReduceLSetTest, NoOpWhenUnderTheLimit) {
  Pcg32 rng(49);
  LListSet set;
  set.add(test::random_l_chain(10, rng));
  const LReductionReport report = reduce_l_set(set, 100, 1.0);
  EXPECT_FALSE(report.triggered);
  EXPECT_EQ(report.before, report.after);
}

}  // namespace
}  // namespace fpopt
