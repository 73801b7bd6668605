// Tests for the combine kernels: slice merges against the naive cross
// product, wheel ops against the closed-form minimal-envelope formulas,
// and provenance integrity.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "optimize/combine.h"
#include "test_util.h"

namespace fpopt {
namespace {

struct Ctx {
  BudgetTracker budget{0};
  OptimizerStats stats;
};

TEST(SliceMergeTest, VerticalHandExample) {
  Ctx ctx;
  const RList a = RList::from_candidates({{4, 2}, {2, 5}});
  const RList b = RList::from_candidates({{3, 3}, {1, 6}});
  const RCombineResult r = combine_slice(a, b, /*horizontal=*/false, ctx.budget, ctx.stats);
  // Candidates: (7,3) (5,6) (5,5) (3,6) -> prune: (7,3), (5,5), (3,6).
  ASSERT_EQ(r.list.size(), 3u);
  EXPECT_EQ(r.list[0], (RectImpl{7, 3}));
  EXPECT_EQ(r.list[1], (RectImpl{5, 5}));
  EXPECT_EQ(r.list[2], (RectImpl{3, 6}));
}

TEST(SliceMergeTest, HorizontalHandExample) {
  Ctx ctx;
  const RList a = RList::from_candidates({{4, 2}, {2, 5}});
  const RList b = RList::from_candidates({{3, 3}, {1, 6}});
  const RCombineResult r = combine_slice(a, b, /*horizontal=*/true, ctx.budget, ctx.stats);
  // Stacked: (4,5) (4,8) (3,8)... candidates (max w, sum h):
  // (4,2)+(3,3)=(4,5); (4,2)+(1,6)=(4,8); (2,5)+(3,3)=(3,8); (2,5)+(1,6)=(2,11).
  // Pruned: (4,5), (3,8), (2,11).
  ASSERT_EQ(r.list.size(), 3u);
  EXPECT_EQ(r.list[0], (RectImpl{4, 5}));
  EXPECT_EQ(r.list[1], (RectImpl{3, 8}));
  EXPECT_EQ(r.list[2], (RectImpl{2, 11}));
}

class SliceMergeRandomTest : public ::testing::TestWithParam<std::tuple<int, int, bool>> {};

TEST_P(SliceMergeRandomTest, LinearMergeEqualsNaiveCrossProduct) {
  const auto [na, nb, horizontal] = GetParam();
  Pcg32 rng(static_cast<std::uint64_t>(na * 1000 + nb * 10 + (horizontal ? 1 : 0)));
  for (int iter = 0; iter < 12; ++iter) {
    Ctx ctx;
    const RList a = test::random_r_list(static_cast<std::size_t>(na), rng);
    const RList b = test::random_r_list(static_cast<std::size_t>(nb), rng);
    const RCombineResult fast = combine_slice(a, b, horizontal, ctx.budget, ctx.stats);
    const RCombineResult naive = combine_slice_naive(a, b, horizontal, ctx.budget, ctx.stats);
    EXPECT_EQ(fast.list, naive.list);
    // Provenance reproduces every implementation.
    for (std::size_t i = 0; i < fast.list.size(); ++i) {
      const RectImpl left = a[fast.prov[i].left];
      const RectImpl right = b[fast.prov[i].right];
      const RectImpl expect = horizontal
                                  ? RectImpl{std::max(left.w, right.w), left.h + right.h}
                                  : RectImpl{left.w + right.w, std::max(left.h, right.h)};
      EXPECT_EQ(fast.list[i], expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SliceMergeRandomTest,
                         ::testing::Values(std::tuple{1, 1, false}, std::tuple{1, 8, false},
                                           std::tuple{8, 1, true}, std::tuple{5, 5, false},
                                           std::tuple{5, 5, true}, std::tuple{20, 13, false},
                                           std::tuple{20, 13, true}, std::tuple{40, 40, false},
                                           std::tuple{40, 40, true}));

TEST(WheelStackTest, ProducesOneChainPerLeftImplWithExactShapes) {
  Ctx ctx;
  const RList d = RList::from_candidates({{8, 2}, {5, 4}, {3, 7}});
  const RList a = RList::from_candidates({{6, 3}, {4, 5}});
  const LCombineResult r = combine_wheel_stack(d, a, LPruning::GlobalEager, ctx.budget, ctx.stats);
  EXPECT_EQ(r.set.list_count(), 2u);
  for (const LList& chain : r.set.lists()) {
    for (const LEntry& e : chain) {
      const Prov p = r.prov[e.id];
      const RectImpl dd = d[p.left];
      const RectImpl aa = a[p.right];
      EXPECT_EQ(e.shape.w1, std::max(dd.w, aa.w));
      EXPECT_EQ(e.shape.w2, aa.w);
      EXPECT_EQ(e.shape.h1, dd.h + aa.h);
      EXPECT_EQ(e.shape.h2, dd.h);
    }
  }
}

TEST(WheelStackTest, DegenerateLWhenBottomNarrowerThanLeft) {
  Ctx ctx;
  const RList d = RList::from_candidates({{3, 2}});
  const RList a = RList::from_candidates({{6, 3}});
  const LCombineResult r = combine_wheel_stack(d, a, LPruning::GlobalEager, ctx.budget, ctx.stats);
  ASSERT_EQ(r.set.total_size(), 1u);
  const LEntry& e = r.set.lists()[0][0];
  EXPECT_TRUE(e.shape.is_degenerate());
  EXPECT_EQ(e.shape.w1, 6);
  EXPECT_EQ(e.shape.w2, 6);
}

/// Closed-form minimal pinwheel envelope for one 5-tuple of child
/// implementations (see combine.h).
RectImpl pinwheel_envelope(const RectImpl& d, const RectImpl& a, const RectImpl& e,
                           const RectImpl& c, const RectImpl& b) {
  const Dim x2 = std::max(d.w, a.w + e.w);
  const Dim y2 = std::max(c.h, d.h + e.h);
  return {std::max(x2 + c.w, a.w + b.w), std::max(y2 + b.h, d.h + a.h)};
}

TEST(WheelOpsTest, FullAssemblyMatchesEnvelopeFormulaBruteForce) {
  Pcg32 rng(61);
  for (int iter = 0; iter < 10; ++iter) {
    Ctx ctx;
    const RList d = test::random_r_list(4, rng);
    const RList a = test::random_r_list(3, rng);
    const RList e = test::random_r_list(4, rng);
    const RList c = test::random_r_list(3, rng);
    const RList b = test::random_r_list(4, rng);

    LCombineResult stack = combine_wheel_stack(d, a, LPruning::GlobalEager, ctx.budget, ctx.stats);
    stack.set.canonicalize();
    LCombineResult notch = combine_wheel_fill_notch(stack.set, e, LPruning::GlobalEager, ctx.budget, ctx.stats);
    notch.set.canonicalize();
    LCombineResult extend = combine_wheel_extend(notch.set, c, LPruning::GlobalEager, ctx.budget, ctx.stats);
    extend.set.canonicalize();
    const RCombineResult closed = combine_wheel_close(extend.set, b, ctx.budget, ctx.stats);

    // Brute-force frontier over all 5-tuples.
    std::vector<RectImpl> cands;
    for (const RectImpl& id : d)
      for (const RectImpl& ia : a)
        for (const RectImpl& ie : e)
          for (const RectImpl& ic : c)
            for (const RectImpl& ib : b) cands.push_back(pinwheel_envelope(id, ia, ie, ic, ib));
    const RList expect = RList::from_candidates(std::move(cands));
    EXPECT_EQ(closed.list, expect) << "iteration " << iter;
  }
}

TEST(WheelOpsTest, MonotoneLazyStretchFormulas) {
  // Each op's output coordinates are non-decreasing in every input
  // coordinate (this is what makes child dominance pruning safe).
  Pcg32 rng(71);
  for (int iter = 0; iter < 200; ++iter) {
    const LImpl l{10 + static_cast<Dim>(rng.below(10)), 5 + static_cast<Dim>(rng.below(5)),
                  12 + static_cast<Dim>(rng.below(10)), 4 + static_cast<Dim>(rng.below(6))};
    const LImpl bigger{l.w1 + 1, l.w2, l.h1 + 2, l.h2 + 1};
    const RectImpl r{1 + static_cast<Dim>(rng.below(8)), 1 + static_cast<Dim>(rng.below(8))};
    if (!l.valid() || !bigger.valid()) continue;

    const auto notch = [&](const LImpl& s) {
      const Dim h2 = s.h2 + r.h;
      return LImpl{std::max(s.w1, s.w2 + r.w), s.w2, std::max(s.h1, h2), h2};
    };
    const auto extend = [&](const LImpl& s) {
      const Dim y2 = std::max(s.h2, r.h);
      return LImpl{s.w1 + r.w, s.w2, std::max(s.h1, y2), y2};
    };
    EXPECT_TRUE(notch(bigger).dominates(notch(l)));
    EXPECT_TRUE(extend(bigger).dominates(extend(l)));
  }
}

TEST(WheelOpsTest, ProvenanceRecomputesEveryShapeThroughTheWholeAssembly) {
  // Follow provenance ids through stack -> fill -> extend -> close and
  // recompute each surviving implementation from its leaf choices.
  Pcg32 rng(91);
  for (int iter = 0; iter < 8; ++iter) {
    Ctx ctx;
    const RList d = test::random_r_list(5, rng);
    const RList a = test::random_r_list(4, rng);
    const RList e = test::random_r_list(5, rng);
    const RList c = test::random_r_list(4, rng);
    const RList b = test::random_r_list(5, rng);

    LCombineResult stack = combine_wheel_stack(d, a, LPruning::GlobalEager, ctx.budget,
                                               ctx.stats);
    stack.set.canonicalize();
    LCombineResult notch =
        combine_wheel_fill_notch(stack.set, e, LPruning::GlobalEager, ctx.budget, ctx.stats);
    notch.set.canonicalize();
    LCombineResult extend =
        combine_wheel_extend(notch.set, c, LPruning::GlobalEager, ctx.budget, ctx.stats);
    extend.set.canonicalize();
    const RCombineResult closed = combine_wheel_close(extend.set, b, ctx.budget, ctx.stats);

    const auto find_entry = [](const LListSet& set, std::uint32_t id) -> const LImpl* {
      for (const LList& chain : set.lists()) {
        for (const LEntry& entry : chain) {
          if (entry.id == id) return &entry.shape;
        }
      }
      return nullptr;
    };

    for (std::size_t i = 0; i < closed.list.size(); ++i) {
      const Prov p4 = closed.prov[i];
      const LImpl* l3 = find_entry(extend.set, p4.left);
      ASSERT_NE(l3, nullptr);
      const Prov p3 = extend.prov[p4.left];
      const LImpl* l2 = find_entry(notch.set, p3.left);
      ASSERT_NE(l2, nullptr);
      const Prov p2 = notch.prov[p3.left];
      const LImpl* l1 = find_entry(stack.set, p2.left);
      ASSERT_NE(l1, nullptr);
      const Prov p1 = stack.prov[p2.left];

      const RectImpl dd = d[p1.left], aa = a[p1.right], ee = e[p2.right], cc = c[p3.right],
                     bb = b[p4.right];
      // Recompute through the op formulas.
      const LImpl s1{std::max(dd.w, aa.w), aa.w, dd.h + aa.h, dd.h};
      EXPECT_EQ(s1, *l1);
      const Dim h2 = s1.h2 + ee.h;
      const LImpl s2{std::max(s1.w1, s1.w2 + ee.w), s1.w2, std::max(s1.h1, h2), h2};
      EXPECT_EQ(s2, *l2);
      const Dim y2 = std::max(s2.h2, cc.h);
      const LImpl s3{s2.w1 + cc.w, s2.w2, std::max(s2.h1, y2), y2};
      EXPECT_EQ(s3, *l3);
      const RectImpl s4{std::max(s3.w1, s3.w2 + bb.w), std::max(s3.h1, s3.h2 + bb.h)};
      EXPECT_EQ(s4, closed.list[i]);
    }
  }
}

/// The collect-then-compact wheel close that the live staircase replaced,
/// changed only by the index tie-break of prune_rect_candidates. Each run
/// is stack-pruned into one candidate buffer, which is pruned whenever it
/// passes `compact_at` and once more at the end. It is the oracle for the
/// list, the provenance and every budget charge. `compactions` counts the
/// mid-run prunes.
RCombineResult wheel_close_reference(const LListSet& l, const RList& b, BudgetTracker& budget,
                                     std::size_t& compactions) {
  TransientScope transient(budget);
  std::vector<RectImpl> cands;
  std::vector<Prov> prov;
  const auto prune = [&] {
    std::vector<RectImpl> kept_cands;
    std::vector<Prov> kept_prov;
    for (const std::size_t k : prune_rect_candidates(cands)) {
      kept_cands.push_back(cands[k]);
      kept_prov.push_back(prov[k]);
    }
    cands = std::move(kept_cands);
    prov = std::move(kept_prov);
  };
  compactions = 0;
  std::size_t compact_at = 4096;
  for (const LList& chain : l.lists()) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      const std::size_t first_kept = cands.size();
      for (const LEntry& e : chain) {
        const RectImpl c{std::max(e.shape.w1, e.shape.w2 + b[j].w),
                         std::max(e.shape.h1, e.shape.h2 + b[j].h)};
        while (cands.size() > first_kept && cands.back().dominates(c)) {
          cands.pop_back();
          prov.pop_back();
        }
        if (cands.size() > first_kept && c.dominates(cands.back())) continue;
        cands.push_back(c);
        prov.push_back({e.id, static_cast<std::uint32_t>(j)});
        transient.add(1);
      }
      if (cands.size() > compact_at) {
        prune();
        transient.reset_to(cands.size());
        compact_at = std::max<std::size_t>(4096, cands.size() * 2);
        ++compactions;
      }
    }
  }
  prune();
  return {RList::from_sorted_unchecked(std::move(cands)), std::move(prov)};
}

/// Random chains over a few w2 values with small steps, so wheel close
/// sees many exact duplicates. Ids are unique across chains, as the
/// combine kernels assign them.
LListSet random_l_set(std::size_t chains, std::size_t len, Pcg32& rng) {
  LListSet set;
  std::uint32_t next_id = 0;
  for (std::size_t c = 0; c < chains; ++c) {
    const LList chain = test::random_l_chain(len, rng, 3);
    std::vector<LEntry> entries(chain.begin(), chain.end());
    for (LEntry& e : entries) e.id = next_id++;
    set.add(LList::from_chain_unchecked(std::move(entries)));
  }
  return set;
}

/// The L set a real wheel hands to its close: stack, fill and extend of
/// random children, each canonicalized as the optimizer does.
LListSet assembled_l_set(std::size_t n, Pcg32& rng) {
  Ctx ctx;
  const RList d = test::random_r_list(n, rng, 3);
  const RList a = test::random_r_list(n, rng, 3);
  const RList e = test::random_r_list(n, rng, 3);
  const RList c = test::random_r_list(n, rng, 3);
  LCombineResult stack = combine_wheel_stack(d, a, LPruning::GlobalAtNode, ctx.budget, ctx.stats);
  stack.set.canonicalize();
  LCombineResult notch =
      combine_wheel_fill_notch(stack.set, e, LPruning::GlobalAtNode, ctx.budget, ctx.stats);
  notch.set.canonicalize();
  LCombineResult extend =
      combine_wheel_extend(notch.set, c, LPruning::GlobalAtNode, ctx.budget, ctx.stats);
  extend.set.canonicalize();
  return extend.set;
}

/// What a combine run leaves in its budget tracker: whether it aborted,
/// the counts at the abort, and the peaks.
struct BudgetOutcome {
  bool aborted = false;
  std::size_t stored_at_abort = 0;
  std::size_t transient_at_abort = 0;
  std::size_t peak_transient = 0;
  std::size_t peak_total = 0;

  friend bool operator==(const BudgetOutcome&, const BudgetOutcome&) = default;
};

template <typename CombineFn>
BudgetOutcome run_under_budget(std::size_t impl_budget, CombineFn&& combine) {
  BudgetTracker budget(impl_budget);
  BudgetOutcome out;
  try {
    combine(budget);
  } catch (const MemoryLimitExceeded& e) {
    out.aborted = true;
    out.stored_at_abort = e.stored;
    out.transient_at_abort = e.transient;
  }
  out.peak_transient = budget.peak_transient();
  out.peak_total = budget.peak_total();
  return out;
}

TEST(WheelCloseTest, StaircaseMatchesCollectThenCompactReference) {
  Pcg32 rng(97);
  for (int iter = 0; iter < 8; ++iter) {
    const LListSet l = iter % 2 == 0 ? random_l_set(800, 12, rng) : assembled_l_set(28, rng);
    const RList b = test::random_r_list(20, rng, 3);

    BudgetTracker ref_budget(0);
    std::size_t compactions = 0;
    const RCombineResult want = wheel_close_reference(l, b, ref_budget, compactions);
    ASSERT_GE(compactions, 3u) << "iteration " << iter << " must cross compact_at repeatedly";

    Ctx ctx;
    const RCombineResult got = combine_wheel_close(l, b, ctx.budget, ctx.stats);
    EXPECT_EQ(got.list, want.list) << "iteration " << iter;
    EXPECT_EQ(got.prov, want.prov) << "iteration " << iter;
    EXPECT_EQ(ctx.stats.total_generated, l.total_size() * b.size());
    EXPECT_EQ(ctx.budget.peak_transient(), ref_budget.peak_transient()) << "iteration " << iter;
    EXPECT_EQ(ctx.budget.peak_total(), ref_budget.peak_total()) << "iteration " << iter;
    EXPECT_EQ(ctx.budget.peak_stored(), ref_budget.peak_stored());

    // The abort comes at the same budgets, with the same counts.
    const std::size_t peak = ref_budget.peak_total();
    for (const std::size_t impl_budget :
         {peak / 4, peak / 2, peak - peak / 4, peak - 1, peak, peak + 1}) {
      const BudgetOutcome ref = run_under_budget(impl_budget, [&](BudgetTracker& t) {
        std::size_t ignored = 0;
        (void)wheel_close_reference(l, b, t, ignored);
      });
      const BudgetOutcome fast = run_under_budget(impl_budget, [&](BudgetTracker& t) {
        OptimizerStats stats;
        (void)combine_wheel_close(l, b, t, stats);
      });
      EXPECT_EQ(ref.aborted, impl_budget < peak) << "budget " << impl_budget;
      EXPECT_TRUE(fast == ref) << "iteration " << iter << ", budget " << impl_budget
                               << ": aborted " << fast.aborted << " vs " << ref.aborted
                               << ", peak total " << fast.peak_total << " vs "
                               << ref.peak_total;
    }
  }
}

/// The three L-producing wheel combines as the literal per-candidate
/// double loop of their op formulas. One generation context per (input
/// chain, j), in (chain, j, i) order: `ids[c][i]` is the left id and
/// `cand(c, i, r[j])` the shape of candidate i of input chain c (wheel
/// stack has one input chain, D's curve, with list indices as ids). Each
/// candidate charges add_transient(1). Each context then goes through
/// from_prechain, has its kept entries renumbered into provenance records
/// and charged with add_stored and, under GlobalEager, canonicalizes the
/// set once it passes `compact_at` (4096, then twice the compacted size).
/// It is the oracle for the set, the provenance, total_generated and
/// every budget charge; `compactions` counts the eager compactions.
template <typename CandFn>
LCombineResult l_combine_reference(const std::vector<std::vector<std::uint32_t>>& ids,
                                   const RList& r, CandFn&& cand, LPruning pruning,
                                   BudgetTracker& budget, OptimizerStats& stats,
                                   std::size_t& compactions) {
  LCombineResult out;
  compactions = 0;
  std::size_t compact_at = 4096;
  for (std::size_t c = 0; c < ids.size(); ++c) {
    for (std::size_t j = 0; j < r.size(); ++j) {
      TransientScope transient(budget);
      std::vector<LEntry> pre_chain;
      for (std::size_t i = 0; i < ids[c].size(); ++i) {
        pre_chain.push_back({cand(c, i, r[j]), ids[c][i]});
        transient.add(1);
      }
      stats.total_generated += pre_chain.size();
      const LList pruned = LList::from_prechain(pre_chain);
      std::vector<LEntry> kept(pruned.begin(), pruned.end());
      for (LEntry& e : kept) {
        out.prov.push_back({e.id, static_cast<std::uint32_t>(j)});
        e.id = static_cast<std::uint32_t>(out.prov.size() - 1);
      }
      budget.add_stored(kept.size());
      out.set.add(LList::from_chain_unchecked(std::move(kept)));
      if (pruning == LPruning::GlobalEager && out.set.total_size() > compact_at) {
        budget.sub_stored(out.set.canonicalize());
        compact_at = std::max<std::size_t>(4096, out.set.total_size() * 2);
        ++compactions;
      }
    }
  }
  return out;
}

/// The left ids of every chain of `l`, the `ids` argument of
/// l_combine_reference.
std::vector<std::vector<std::uint32_t>> chain_ids(const LListSet& l) {
  std::vector<std::vector<std::uint32_t>> ids;
  for (const LList& chain : l.lists()) {
    ids.emplace_back();
    for (const LEntry& e : chain) ids.back().push_back(e.id);
  }
  return ids;
}

/// Runs one wheel step, `real(pruning, budget, stats)`, and its
/// `reference(pruning, budget, stats, compactions)` under every pruning
/// mode and expects the same set, provenance, total_generated, peaks and
/// abort counts.
template <typename RealFn, typename RefFn>
void expect_matches_reference(const char* name, RealFn&& real, RefFn&& reference) {
  for (const LPruning pruning :
       {LPruning::PerChain, LPruning::GlobalAtNode, LPruning::GlobalEager}) {
    const std::string where =
        std::string(name) + ", pruning " + std::to_string(static_cast<int>(pruning));
    BudgetTracker ref_budget(0);
    OptimizerStats ref_stats;
    std::size_t compactions = 0;
    const LCombineResult want = reference(pruning, ref_budget, ref_stats, compactions);
    if (pruning == LPruning::GlobalEager) {
      ASSERT_GE(compactions, 3u) << where << " must cross compact_at repeatedly";
    }

    Ctx ctx;
    const LCombineResult got = real(pruning, ctx.budget, ctx.stats);
    EXPECT_TRUE(got.set == want.set) << where;
    EXPECT_EQ(got.prov, want.prov) << where;
    EXPECT_EQ(ctx.stats.total_generated, ref_stats.total_generated) << where;
    EXPECT_EQ(ctx.budget.peak_stored(), ref_budget.peak_stored()) << where;
    EXPECT_EQ(ctx.budget.peak_transient(), ref_budget.peak_transient()) << where;
    EXPECT_EQ(ctx.budget.peak_total(), ref_budget.peak_total()) << where;

    // The abort comes at the same budgets, with the same counts. Every
    // context charges a row and then its kept entries, so past the first
    // row a growing set mostly trips on add_stored; the budgets below 8
    // trip inside the first row, where only a per-candidate charge stops
    // at the budget itself.
    const std::size_t peak = ref_budget.peak_total();
    for (const std::size_t impl_budget : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                                          std::size_t{7}, peak / 4, peak / 2, peak - peak / 4,
                                          peak - 1, peak, peak + 1}) {
      const BudgetOutcome ref = run_under_budget(impl_budget, [&](BudgetTracker& t) {
        OptimizerStats stats;
        std::size_t ignored = 0;
        (void)reference(pruning, t, stats, ignored);
      });
      const BudgetOutcome fast = run_under_budget(impl_budget, [&](BudgetTracker& t) {
        OptimizerStats stats;
        (void)real(pruning, t, stats);
      });
      EXPECT_EQ(ref.aborted, impl_budget < peak) << where << ", budget " << impl_budget;
      EXPECT_TRUE(fast == ref) << where << ", budget " << impl_budget << ": aborted "
                               << fast.aborted << " vs " << ref.aborted << " at "
                               << fast.stored_at_abort << "+" << fast.transient_at_abort
                               << " vs " << ref.stored_at_abort << "+"
                               << ref.transient_at_abort;
    }
  }
}

TEST(WheelLCombineTest, StackFillNotchAndExtendMatchPerCandidateReference) {
  Pcg32 rng(113);
  const RList d = test::random_r_list(300, rng, 3);
  const RList a = test::random_r_list(90, rng, 3);
  const LListSet random_set = random_l_set(800, 12, rng);
  const LListSet assembled = assembled_l_set(28, rng);
  const RList e = test::random_r_list(20, rng, 3);
  const RList c = test::random_r_list(20, rng, 3);

  std::vector<std::uint32_t> d_ids(d.size());
  for (std::size_t i = 0; i < d.size(); ++i) d_ids[i] = static_cast<std::uint32_t>(i);
  const auto stack = [&](std::size_t, std::size_t i, const RectImpl& r) {
    return LImpl{std::max(d[i].w, r.w), r.w, d[i].h + r.h, d[i].h};
  };
  expect_matches_reference(
      "stack",
      [&](LPruning p, BudgetTracker& t, OptimizerStats& s) {
        return combine_wheel_stack(d, a, p, t, s);
      },
      [&](LPruning p, BudgetTracker& t, OptimizerStats& s, std::size_t& n) {
        return l_combine_reference({d_ids}, a, stack, p, t, s, n);
      });

  for (const LListSet* l : {&random_set, &assembled}) {
    const std::vector<std::vector<std::uint32_t>> ids = chain_ids(*l);
    // The op formulas of WheelOpsTest.MonotoneLazyStretchFormulas.
    const auto notch = [l](std::size_t chain, std::size_t i, const RectImpl& r) {
      const LImpl& s = l->lists()[chain][i].shape;
      const Dim h2 = s.h2 + r.h;
      return LImpl{std::max(s.w1, s.w2 + r.w), s.w2, std::max(s.h1, h2), h2};
    };
    const auto extend = [l](std::size_t chain, std::size_t i, const RectImpl& r) {
      const LImpl& s = l->lists()[chain][i].shape;
      const Dim y2 = std::max(s.h2, r.h);
      return LImpl{s.w1 + r.w, s.w2, std::max(s.h1, y2), y2};
    };
    expect_matches_reference(
        "fill notch",
        [&](LPruning p, BudgetTracker& t, OptimizerStats& s) {
          return combine_wheel_fill_notch(*l, e, p, t, s);
        },
        [&](LPruning p, BudgetTracker& t, OptimizerStats& s, std::size_t& n) {
          return l_combine_reference(ids, e, notch, p, t, s, n);
        });
    expect_matches_reference(
        "extend",
        [&](LPruning p, BudgetTracker& t, OptimizerStats& s) {
          return combine_wheel_extend(*l, c, p, t, s);
        },
        [&](LPruning p, BudgetTracker& t, OptimizerStats& s, std::size_t& n) {
          return l_combine_reference(ids, c, extend, p, t, s, n);
        });
  }
}

TEST(BudgetTest, CombineAbortsWhenBudgetExceeded) {
  OptimizerStats stats;
  BudgetTracker tight(10);
  Pcg32 rng(81);
  const RList d = test::random_r_list(10, rng);
  const RList a = test::random_r_list(10, rng);
  EXPECT_THROW(combine_wheel_stack(d, a, LPruning::GlobalEager, tight, stats), MemoryLimitExceeded);
}

TEST(BudgetTest, TransientScopeReleasesOnExit) {
  BudgetTracker t(100);
  {
    TransientScope scope(t);
    scope.add(40);
    EXPECT_EQ(t.peak_transient(), 40u);
  }
  {
    TransientScope scope(t);
    scope.add(70);  // would exceed 100 only if the first scope leaked
  }
  EXPECT_EQ(t.peak_transient(), 70u);
}

}  // namespace
}  // namespace fpopt
