// Unit and property tests for irreducible R-lists and dominance pruning.
#include <gtest/gtest.h>

#include <numeric>

#include "shape/r_list.h"
#include "test_util.h"

namespace fpopt {
namespace {

TEST(PruneRectTest, RemovesDominatedCandidates) {
  const std::vector<RectImpl> cands{{5, 5}, {4, 4}, {6, 6}, {4, 6}};
  const auto kept = prune_rect_candidates(cands);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(cands[kept[0]], (RectImpl{4, 4}));
}

TEST(PruneRectTest, KeepsIncomparableCandidatesInWidthOrder) {
  const std::vector<RectImpl> cands{{3, 7}, {9, 2}, {6, 4}};
  const auto kept = prune_rect_candidates(cands);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(cands[kept[0]].w, 9);
  EXPECT_EQ(cands[kept[1]].w, 6);
  EXPECT_EQ(cands[kept[2]].w, 3);
}

TEST(PruneRectTest, DeduplicatesExactCopies) {
  const std::vector<RectImpl> cands{{5, 5}, {5, 5}, {5, 5}};
  EXPECT_EQ(prune_rect_candidates(cands).size(), 1u);
}

TEST(PruneRectTest, EqualWidthKeepsShortest) {
  const std::vector<RectImpl> cands{{5, 9}, {5, 3}, {5, 6}};
  const auto kept = prune_rect_candidates(cands);
  ASSERT_EQ(kept.size(), 1u);
  EXPECT_EQ(cands[kept[0]], (RectImpl{5, 3}));
}

TEST(PruneRectTest, EmptyInput) { EXPECT_TRUE(prune_rect_candidates({}).empty()); }

TEST(RListTest, FromCandidatesProducesIrreducibleList) {
  Pcg32 rng(3);
  for (int iter = 0; iter < 50; ++iter) {
    std::vector<RectImpl> cands;
    const std::size_t n = 1 + rng.below(40);
    for (std::size_t i = 0; i < n; ++i) {
      cands.push_back({1 + static_cast<Dim>(rng.below(30)), 1 + static_cast<Dim>(rng.below(30))});
    }
    const RList list = RList::from_candidates(cands);
    EXPECT_TRUE(is_irreducible_r_list(list.impls()));
    // Everything removed is dominated by something kept; everything kept
    // is a candidate.
    for (const RectImpl& c : cands) {
      const std::optional<Dim> h = list.min_height_at(c.w);
      EXPECT_TRUE(h && *h <= c.h) << "candidate " << c << " not covered by the frontier";
    }
  }
}

TEST(RListTest, MinAreaIndex) {
  const RList list = RList::from_candidates({{10, 2}, {5, 5}, {2, 10}});
  EXPECT_EQ(list[list.min_area_index()].area(), 20);
  const RList single = RList::from_candidates({{7, 3}});
  EXPECT_EQ(single.min_area_index(), 0u);
}

TEST(RListTest, SubsetPreservesOrderAndIrreducibility) {
  Pcg32 rng(11);
  const RList list = test::random_r_list(12, rng);
  const std::vector<std::size_t> kept{0, 3, 4, 9, 11};
  const RList sub = list.subset(kept);
  ASSERT_EQ(sub.size(), kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) EXPECT_EQ(sub[i], list[kept[i]]);
  EXPECT_TRUE(is_irreducible_r_list(sub.impls()));
}

TEST(RListTest, EqualityAndEmpty) {
  EXPECT_TRUE(RList{}.empty());
  const RList a = RList::from_candidates({{4, 4}, {2, 6}});
  const RList b = RList::from_candidates({{2, 6}, {4, 4}});
  EXPECT_EQ(a, b) << "construction order must not matter";
}

class PruneRectRandomTest : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PruneRectRandomTest, AgreesWithQuadraticOracle) {
  Pcg32 rng(17 + GetParam());
  for (int iter = 0; iter < 20; ++iter) {
    std::vector<RectImpl> cands;
    for (std::size_t i = 0; i < GetParam(); ++i) {
      cands.push_back({1 + static_cast<Dim>(rng.below(15)), 1 + static_cast<Dim>(rng.below(15))});
    }
    const auto kept = prune_rect_candidates(cands);
    // Oracle: candidate i survives iff no other candidate strictly "covers"
    // it (dominated by a distinct, not-identical-duplicate candidate), with
    // exactly one survivor per duplicate group.
    std::size_t expected = 0;
    std::vector<RectImpl> uniq = cands;
    std::sort(uniq.begin(), uniq.end());
    uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
    for (const RectImpl& c : uniq) {
      bool dominated = false;
      for (const RectImpl& other : uniq) {
        if (other != c && c.dominates(other)) dominated = true;
      }
      if (!dominated) ++expected;
    }
    EXPECT_EQ(kept.size(), expected);
    // Tie rule: the survivor of a duplicate group is its first index.
    for (const std::size_t k : kept) {
      const auto first = std::find(cands.begin(), cands.end(), cands[k]);
      EXPECT_EQ(static_cast<std::size_t>(first - cands.begin()), k)
          << "iteration " << iter << ": duplicate " << cands[k] << " kept a later copy";
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, PruneRectRandomTest,
                         ::testing::Values(0, 1, 2, 5, 10, 25, 60, 150));

}  // namespace
}  // namespace fpopt
