// Unit and property tests for irreducible L-lists, chain pruning, and
// L-list sets (global pruning + chain partition).
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>

#include "optimize/combine.h"
#include "shape/l_list.h"
#include "shape/l_list_set.h"
#include "test_util.h"

namespace fpopt {
namespace {

/// What canonicalize must return, computed without its neighbour pass:
/// each whole w2 group goes through the Pareto sweep, then into chains.
struct WholeGroupSweep {
  LListSet set;
  std::size_t removed = 0;
};

WholeGroupSweep sweep_whole_groups(const LListSet& in) {
  std::map<Dim, std::vector<LEntry>> groups;
  for (const LList& chain : in.lists()) {
    std::vector<LEntry>& group = groups[chain.w2()];
    group.insert(group.end(), chain.begin(), chain.end());
  }
  std::vector<LList> lists;
  for (auto& [w2, group] : groups) {
    for (LList& c : partition_into_chains(pareto_min_l_entries(std::move(group)))) {
      lists.push_back(std::move(c));
    }
  }
  WholeGroupSweep out;
  out.set.replace_lists(std::move(lists));
  out.removed = in.total_size() - out.set.total_size();
  return out;
}

/// Canonicalize a copy of `set`; expect the whole-group sweep's set and
/// removed count. Returns the removed count.
std::size_t expect_matches_whole_sweep(LListSet set, const std::string& what) {
  const WholeGroupSweep want = sweep_whole_groups(set);
  const std::size_t removed = set.canonicalize();
  EXPECT_EQ(removed, want.removed) << what;
  EXPECT_TRUE(set == want.set) << what;
  return removed;
}

std::set<std::uint32_t> ids_of(const LListSet& set) {
  std::set<std::uint32_t> ids;
  for (const LEntry& e : set.all_entries()) ids.insert(e.id);
  return ids;
}

TEST(LChainTest, IrreducibleDetection) {
  const std::vector<LImpl> good{{12, 5, 6, 3}, {10, 5, 7, 4}, {8, 5, 9, 4}};
  EXPECT_TRUE(is_irreducible_l_chain(good));
  const std::vector<LImpl> wrong_w2{{12, 5, 6, 3}, {10, 6, 7, 4}};
  EXPECT_FALSE(is_irreducible_l_chain(wrong_w2));
  const std::vector<LImpl> equal_w1{{12, 5, 6, 3}, {12, 5, 7, 4}};
  EXPECT_FALSE(is_irreducible_l_chain(equal_w1));
  const std::vector<LImpl> decreasing_h{{12, 5, 6, 3}, {10, 5, 5, 3}};
  EXPECT_FALSE(is_irreducible_l_chain(decreasing_h));
  const std::vector<LImpl> equal_heights{{10, 5, 6, 3}, {8, 5, 6, 3}};  // the wider is redundant
  EXPECT_FALSE(is_irreducible_l_chain(equal_heights));
  EXPECT_TRUE(is_irreducible_l_chain(std::vector<LImpl>{}));
}

TEST(LListTest, FromPrechainPrunesDominatedEntries) {
  // Ties in w1: the earlier (taller) entry is redundant; ties in heights:
  // the wider entry is redundant.
  const std::vector<LEntry> pre{
      {{12, 5, 6, 3}, 0}, {{12, 5, 6, 3}, 1},  // duplicate
      {{10, 5, 6, 3}, 2},                      // same heights, narrower: makes id1 redundant
      {{8, 5, 9, 4}, 3},
  };
  const LList pruned = LList::from_prechain(pre);
  ASSERT_EQ(pruned.size(), 2u);
  EXPECT_EQ(pruned[0].id, 2u);
  EXPECT_EQ(pruned[1].id, 3u);
}

TEST(LListTest, FromPrechainKeepsStrictChains) {
  Pcg32 rng(5);
  for (int iter = 0; iter < 30; ++iter) {
    const LList chain = test::random_l_chain(10, rng);
    const std::vector<LEntry> pre(chain.begin(), chain.end());
    EXPECT_EQ(LList::from_prechain(pre), chain) << "already-irreducible chains are unchanged";
  }
}

TEST(LListTest, SubsetKeepsIdsAndInvariant) {
  Pcg32 rng(6);
  const LList chain = test::random_l_chain(9, rng);
  const std::vector<std::size_t> kept{0, 2, 5, 8};
  const LList sub = chain.subset(kept);
  ASSERT_EQ(sub.size(), 4u);
  for (std::size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(sub[i], chain[kept[i]]);
}

TEST(LListSetTest, AddIgnoresEmptyAndCountsTotals) {
  LListSet set;
  set.add(LList{});
  EXPECT_TRUE(set.empty());
  Pcg32 rng(7);
  set.add(test::random_l_chain(4, rng));
  set.add(test::random_l_chain(6, rng));
  EXPECT_EQ(set.list_count(), 2u);
  EXPECT_EQ(set.total_size(), 10u);
  EXPECT_EQ(set.all_entries().size(), 10u);
}

TEST(ParetoMinTest, DropsCrossChainDominatedEntries) {
  // Same w2 group; the second entry is dominated by the first.
  std::vector<LEntry> entries{
      {{10, 5, 6, 3}, 0},
      {{11, 5, 7, 3}, 1},  // dominates nothing, dominated by... it dominates entry 0? No:
                           // (11,5,7,3) >= (10,5,6,3) componentwise -> redundant.
      {{9, 5, 8, 2}, 2},   // incomparable with entry 0
  };
  const auto kept = pareto_min_l_entries(entries);
  std::set<std::uint32_t> ids;
  for (const LEntry& e : kept) ids.insert(e.id);
  EXPECT_EQ(ids, (std::set<std::uint32_t>{0, 2}));
}

TEST(ParetoMinTest, KeepsOneCopyOfDuplicates) {
  std::vector<LEntry> entries{{{10, 5, 6, 3}, 0}, {{10, 5, 6, 3}, 1}, {{10, 5, 6, 3}, 2}};
  EXPECT_EQ(pareto_min_l_entries(entries).size(), 1u);
}

TEST(ParetoMinTest, AgreesWithQuadraticOracleOnRandomGroups) {
  Pcg32 rng(23);
  // Wide coordinate ranges first, then narrow ones where exact duplicates
  // are common.
  for (int iter = 0; iter < 120; ++iter) {
    const std::uint32_t span = iter < 60 ? 12 : 4;
    std::vector<LEntry> entries;
    const std::size_t n = 1 + rng.below(60);
    for (std::size_t i = 0; i < n; ++i) {
      const Dim h2 = 1 + static_cast<Dim>(rng.below(span));
      const Dim h1 = h2 + static_cast<Dim>(rng.below(span));
      entries.push_back(
          {{7 + static_cast<Dim>(rng.below(span)), 7, h1, h2}, static_cast<std::uint32_t>(i)});
    }
    const auto kept = pareto_min_l_entries(entries);
    // Oracle on unique shapes.
    std::vector<LImpl> uniq;
    for (const LEntry& e : entries) uniq.push_back(e.shape);
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    std::size_t expected = 0;
    for (const LImpl& c : uniq) {
      bool redundant = false;
      for (const LImpl& other : uniq) {
        if (other != c && c.dominates(other)) redundant = true;
      }
      if (!redundant) ++expected;
    }
    ASSERT_EQ(kept.size(), expected);
    // No kept entry dominates another.
    for (const LEntry& a : kept) {
      for (const LEntry& b : kept) {
        if (a.id != b.id) {
          EXPECT_FALSE(a.shape.dominates(b.shape));
        }
      }
    }
    // Tie rule: the survivor of a duplicate group has the group's smallest id.
    for (const LEntry& k : kept) {
      for (const LEntry& e : entries) {
        EXPECT_FALSE(e.shape == k.shape && e.id < k.id)
            << "iteration " << iter << ": " << k.shape << " kept id " << k.id << ", not " << e.id;
      }
    }
  }
}

TEST(ChainPartitionTest, ProducesValidChainsCoveringAllEntries) {
  Pcg32 rng(31);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<LEntry> entries;
    const std::size_t n = 1 + rng.below(50);
    for (std::size_t i = 0; i < n; ++i) {
      const Dim h2 = 1 + static_cast<Dim>(rng.below(15));
      const Dim h1 = h2 + static_cast<Dim>(rng.below(15));
      entries.push_back(
          {{9 + static_cast<Dim>(rng.below(15)), 9, h1, h2}, static_cast<std::uint32_t>(i)});
    }
    const auto minimal = pareto_min_l_entries(entries);
    const auto chains = partition_into_chains(minimal);
    std::size_t covered = 0;
    std::set<std::uint32_t> seen;
    for (const LList& c : chains) {
      EXPECT_TRUE(is_irreducible_l_chain(c.shapes()));
      covered += c.size();
      for (const LEntry& e : c) seen.insert(e.id);
    }
    EXPECT_EQ(covered, minimal.size());
    EXPECT_EQ(seen.size(), minimal.size()) << "every entry lands in exactly one chain";
  }
}

TEST(LListSetCanonicalizeTest, RemovesCrossChainRedundancyAndPreservesIds) {
  LListSet set;
  set.add(LList::from_chain_unchecked({{{12, 5, 6, 3}, 0}, {{10, 5, 7, 4}, 1}}));
  set.add(LList::from_chain_unchecked({{{12, 5, 6, 4}, 2}}));  // dominates nothing... it
  // dominates entry 0? (12,5,6,4) >= (12,5,6,3): yes -> id 2 is redundant.
  set.add(LList::from_chain_unchecked({{{20, 9, 4, 2}, 3}}));  // different w2 group
  const std::size_t removed = set.canonicalize();
  EXPECT_EQ(removed, 1u);
  std::set<std::uint32_t> ids;
  for (const LEntry& e : set.all_entries()) ids.insert(e.id);
  EXPECT_EQ(ids, (std::set<std::uint32_t>{0, 1, 3}));
}

TEST(LListSetCanonicalizeTest, ChainOrderDoesNotMatter) {
  // Chains from a few w2 values plus subsets of them, so exact duplicates
  // cross chains; ids are unique across chains, as the combine kernels
  // assign them.
  Pcg32 rng(43);
  for (int iter = 0; iter < 40; ++iter) {
    std::vector<LList> chains;
    for (int c = 0; c < 6; ++c) {
      const LList base = test::random_l_chain(8, rng, 3);
      chains.push_back(base);
      std::vector<std::size_t> pick;
      for (std::size_t i = 0; i < base.size(); ++i) {
        if (rng.below(2) == 0) pick.push_back(i);
      }
      if (!pick.empty()) chains.push_back(base.subset(pick));
    }
    std::uint32_t next_id = 0;
    std::vector<LEntry> all;
    for (LList& chain : chains) {
      std::vector<LEntry> entries(chain.begin(), chain.end());
      for (LEntry& e : entries) e.id = next_id++;
      all.insert(all.end(), entries.begin(), entries.end());
      chain = LList::from_chain_unchecked(std::move(entries));
    }
    LListSet forward;
    LListSet reverse;
    for (const LList& chain : chains) forward.add(chain);
    for (auto it = chains.rbegin(); it != chains.rend(); ++it) reverse.add(*it);
    EXPECT_EQ(forward.canonicalize(), reverse.canonicalize());
    EXPECT_TRUE(forward == reverse) << "iteration " << iter;
    // Each surviving shape keeps the smallest id among its copies.
    for (const LEntry& k : forward.all_entries()) {
      for (const LEntry& e : all) {
        EXPECT_FALSE(e.shape == k.shape && e.id < k.id) << "iteration " << iter;
      }
    }
  }
}

TEST(LListSetCanonicalizeTest, MatchesWholeGroupSweepOnKernelOutput) {
  // Stack, fill and extend of random children with node-level pruning, as
  // a wheel is assembled: each kernel adds the chains of one input chain
  // next to each other, so most redundancy is between neighbours.
  Pcg32 rng(47);
  BudgetTracker budget(0);
  OptimizerStats stats;
  std::size_t removed = 0;
  for (int iter = 0; iter < 30; ++iter) {
    const std::size_t n = 2 + rng.below(14);
    const RList d = test::random_r_list(n, rng, 3);
    const RList a = test::random_r_list(n, rng, 3);
    const RList e = test::random_r_list(n, rng, 3);
    const RList c = test::random_r_list(n, rng, 3);
    const std::string at = "iteration " + std::to_string(iter);
    LCombineResult stack = combine_wheel_stack(d, a, LPruning::GlobalAtNode, budget, stats);
    removed += expect_matches_whole_sweep(stack.set, at + " stack");
    stack.set.canonicalize();
    LCombineResult notch =
        combine_wheel_fill_notch(stack.set, e, LPruning::GlobalAtNode, budget, stats);
    removed += expect_matches_whole_sweep(notch.set, at + " fill notch");
    notch.set.canonicalize();
    const LCombineResult extend =
        combine_wheel_extend(notch.set, c, LPruning::GlobalAtNode, budget, stats);
    removed += expect_matches_whole_sweep(extend.set, at + " extend");
  }
  EXPECT_GT(removed, 0u) << "the kernels' sets carry cross-chain redundancy";
}

TEST(LListSetCanonicalizeTest, SweepRemovesWhatOnlyADistantChainDominates) {
  // B is incomparable with A and C, so the redundant entry's only witness
  // is not its neighbour, whichever of A and C comes first.
  const LList a = LList::from_chain_unchecked({{{12, 5, 6, 3}, 0}});
  const LList b = LList::from_chain_unchecked({{{8, 5, 9, 2}, 1}});
  const LList c = LList::from_chain_unchecked({{{13, 5, 7, 4}, 2}});
  for (const bool forward : {true, false}) {
    LListSet set;
    set.add(forward ? a : c);
    set.add(b);
    set.add(forward ? c : a);
    expect_matches_whole_sweep(set, forward ? "A, B, C" : "C, B, A");
    EXPECT_EQ(set.canonicalize(), 1u);
    EXPECT_EQ(ids_of(set), (std::set<std::uint32_t>{0, 1}));
  }
}

TEST(LListSetCanonicalizeTest, KeepsTheSmallerIdOfNeighbouringDuplicates) {
  // Two neighbouring chains with the same two shapes; each chain holds the
  // smaller id of one of them.
  const LList x = LList::from_chain_unchecked({{{12, 5, 6, 3}, 0}, {{10, 5, 7, 4}, 5}});
  const LList y = LList::from_chain_unchecked({{{12, 5, 6, 3}, 4}, {{10, 5, 7, 4}, 1}});
  for (const bool forward : {true, false}) {
    LListSet set;
    set.add(forward ? x : y);
    set.add(forward ? y : x);
    expect_matches_whole_sweep(set, forward ? "x, y" : "y, x");
    EXPECT_EQ(set.canonicalize(), 2u);
    EXPECT_EQ(ids_of(set), (std::set<std::uint32_t>{0, 1}));
  }
}

TEST(LListSetCanonicalizeTest, MatchesWholeGroupSweepOnRandomSets) {
  // Chains over few w2 values plus subsets of them, in random order, so
  // duplicates and redundant entries sit in neighbouring and in distant
  // chains.
  Pcg32 rng(53);
  for (int iter = 0; iter < 60; ++iter) {
    std::vector<LList> chains;
    std::uint32_t next_id = 0;
    for (int k = 0; k < 8; ++k) {
      const LList base = test::random_l_chain(1 + rng.below(8), rng, 3);
      const bool shared_w2 = rng.below(2) == 0;
      std::vector<LEntry> entries(base.begin(), base.end());
      for (LEntry& e : entries) {
        if (shared_w2) e.shape.w2 = 5;  // random_l_chain's smallest w2
        e.id = next_id++;
      }
      std::vector<LEntry> subset;
      for (const LEntry& e : entries) {
        if (rng.below(2) == 0) subset.push_back({e.shape, next_id++});
      }
      chains.push_back(LList::from_chain_unchecked(std::move(entries)));
      if (!subset.empty()) chains.push_back(LList::from_chain_unchecked(std::move(subset)));
    }
    for (std::size_t i = chains.size(); i > 1; --i) {
      std::swap(chains[i - 1], chains[rng.below(static_cast<std::uint32_t>(i))]);
    }
    LListSet set;
    for (const LList& chain : chains) set.add(chain);
    expect_matches_whole_sweep(set, "iteration " + std::to_string(iter));
  }
}

TEST(LListSetCanonicalizeTest, IdempotentOnRandomSets) {
  Pcg32 rng(41);
  for (int iter = 0; iter < 20; ++iter) {
    LListSet set;
    for (int c = 0; c < 4; ++c) set.add(test::random_l_chain(6, rng));
    set.canonicalize();
    const std::size_t after_first = set.total_size();
    EXPECT_EQ(set.canonicalize(), 0u);
    EXPECT_EQ(set.total_size(), after_first);
  }
}

}  // namespace
}  // namespace fpopt
