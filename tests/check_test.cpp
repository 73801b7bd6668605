// Tests for the invariant-audit subsystem: every checker must accept the
// structures the production code builds and reject doctored ones.
#include <gtest/gtest.h>

#include <vector>

#include "check/check_certificate.h"
#include "check/check_cspp.h"
#include "check/check_placement.h"
#include "check/check_shapes.h"
#include "check/check_tree.h"
#include "core/cspp.h"
#include "core/l_selection.h"
#include "core/r_selection.h"
#include "floorplan/serialize.h"
#include "optimize/optimizer.h"
#include "optimize/placement.h"
#include "test_util.h"

namespace fpopt {
namespace {

bool has_rule(const CheckResult& res, const std::string& rule) {
  for (const Violation& v : res.violations()) {
    if (v.rule == rule) return true;
  }
  return false;
}

TEST(CheckResultTest, AccumulatesAndTruncates) {
  CheckResult res;
  EXPECT_TRUE(res.ok());
  for (std::size_t i = 0; i < 3 * kMaxViolationsPerCheck; ++i) {
    if (!res.room_for_more()) break;
    res.add("test/rule", "here", "broken");
  }
  EXPECT_FALSE(res.ok());
  EXPECT_LE(res.size(), kMaxViolationsPerCheck + 1);  // cap + truncation marker
  EXPECT_TRUE(has_rule(res, "check/truncated"));
  EXPECT_NE(res.report().find("test/rule"), std::string::npos);

  CheckResult other;
  other.add("other/rule", "there", "also broken");
  res.merge(std::move(other));
  EXPECT_TRUE(has_rule(res, "other/rule"));
}

TEST(CheckRListTest, AcceptsIrreducibleList) {
  Pcg32 rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    const RList list = test::random_r_list(1 + rng.below(30), rng);
    EXPECT_TRUE(check_r_list(list).ok());
  }
  EXPECT_TRUE(check_r_list(std::span<const RectImpl>{}).ok());
}

TEST(CheckRListTest, RejectsBrokenOrderings) {
  const std::vector<RectImpl> width_tie{{9, 2}, {9, 4}};
  EXPECT_TRUE(has_rule(check_r_list(width_tie), "r-list/width-order"));

  const std::vector<RectImpl> height_drop{{9, 4}, {6, 2}};
  EXPECT_TRUE(has_rule(check_r_list(height_drop), "r-list/height-order"));

  const std::vector<RectImpl> degenerate{{0, 3}};
  EXPECT_TRUE(has_rule(check_r_list(degenerate), "r-list/invalid-shape"));
}

TEST(CheckLListTest, AcceptsIrreducibleChains) {
  Pcg32 rng(13);
  for (int iter = 0; iter < 20; ++iter) {
    const LList chain = test::random_l_chain(1 + rng.below(30), rng);
    EXPECT_TRUE(check_l_list(chain).ok());
  }
}

TEST(CheckLListTest, RejectsBrokenChains) {
  // Doctored chains bypass LList's constructors (which would refuse them)
  // via the span overload.
  const std::vector<LImpl> good{{10, 5, 6, 3}, {9, 5, 7, 4}};
  EXPECT_TRUE(check_l_list(good).ok());

  const std::vector<LImpl> w2_jump{{10, 5, 6, 3}, {9, 4, 7, 4}};
  EXPECT_TRUE(has_rule(check_l_list(w2_jump), "l-list/w2-constant"));

  const std::vector<LImpl> w1_tie{{10, 5, 6, 3}, {10, 5, 7, 4}};
  EXPECT_TRUE(has_rule(check_l_list(w1_tie), "l-list/w1-order"));

  const std::vector<LImpl> h_drop{{10, 5, 6, 3}, {9, 5, 5, 3}};
  EXPECT_TRUE(has_rule(check_l_list(h_drop), "l-list/height-order"));

  const std::vector<LImpl> equal_heights{{10, 5, 6, 3}, {8, 5, 6, 3}};  // the wider is redundant
  EXPECT_TRUE(has_rule(check_l_list(equal_heights), "l-list/redundant"));

  const std::vector<LImpl> invalid{{4, 5, 6, 3}};  // w1 < w2
  EXPECT_TRUE(has_rule(check_l_list(invalid), "l-list/invalid-shape"));
}

TEST(CheckLSetTest, FlagsCrossChainRedundancyOnlyWhenAsked) {
  // Chain 2's entry is dominated by chain 1's first entry (same w2,
  // smaller-or-equal everywhere), but each chain alone is irreducible.
  LListSet set;
  set.add(LList::from_chain_unchecked({{{10, 5, 6, 3}, 0}, {{8, 5, 7, 4}, 1}}));
  set.add(LList::from_chain_unchecked({{{11, 5, 7, 3}, 2}}));
  const CheckResult strict = check_l_list_set(set, /*cross_list=*/true);
  EXPECT_TRUE(has_rule(strict, "l-set/cross-redundant"));
  EXPECT_TRUE(check_l_list_set(set, /*cross_list=*/false).ok());
}

TEST(CheckLSetTest, AcceptsCanonicalizedSets) {
  LListSet set;
  set.add(LList::from_chain_unchecked({{{10, 5, 6, 3}, 0}, {{8, 5, 7, 4}, 1}}));
  set.add(LList::from_chain_unchecked({{{12, 7, 5, 2}, 2}}));  // different w2 group
  EXPECT_TRUE(check_l_list_set(set, true).ok());
}

TEST(CheckTreeTest, AcceptsRestructuredTrees) {
  const FloorplanTree tree = parse_floorplan(
      "(W a b c d (V e f))",
      parse_module_library("a 5x3 4x4\nb 4x5\nc 2x2\nd 4x4\ne 3x3\nf 3x4\n"));
  const BinaryTree btree = restructure(tree);
  EXPECT_TRUE(check_tree(btree, tree).ok()) << check_tree(btree, tree).report();
}

TEST(CheckTreeTest, RejectsDoctoredTrees) {
  const FloorplanTree tree = parse_floorplan(
      "(V a b c)", parse_module_library("a 5x3\nb 4x5\nc 2x2\n"));
  BinaryTree btree = restructure(tree);

  // Break the preorder ids.
  std::swap(btree.root->id, btree.root->left->id);
  CheckResult res = check_tree(btree, tree);
  EXPECT_TRUE(has_rule(res, "tree/preorder-id"));
  std::swap(btree.root->id, btree.root->left->id);

  // Point two leaves at the same module: usage counts break.
  BinaryNode* leaf = btree.root->right.get();
  ASSERT_TRUE(leaf->is_leaf());
  const std::size_t saved = leaf->module_id;
  leaf->module_id = 0;
  res = check_tree(btree, tree);
  EXPECT_TRUE(has_rule(res, "tree/module-usage"));
  leaf->module_id = saved;

  // Claim an L-producing op whose left child is rectangular.
  btree.root->op = BinaryOp::WheelFillNotch;
  res = check_tree(btree, tree);
  EXPECT_TRUE(has_rule(res, "tree/cut-type"));
  EXPECT_TRUE(has_rule(res, "tree/l-root"));
}

TEST(CheckCsppTest, AcceptsSolverOutput) {
  CsppGraph g(5);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(2, 4, 1.0);
  g.add_edge(0, 3, 0.5);
  g.add_edge(3, 4, 0.5);
  const auto result = constrained_shortest_path(g, 0, 4, 4);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(check_cspp_path(g, 0, 4, 4, *result).ok());
}

TEST(CheckCsppTest, RejectsDoctoredPaths) {
  CsppGraph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 2.0);
  g.add_edge(2, 3, 3.0);

  const CsppResult wrong_count{{0, 1, 3}, 4.0};
  EXPECT_TRUE(has_rule(check_cspp_path(g, 0, 3, 4, wrong_count), "cspp/cardinality"));

  const CsppResult missing_edge{{0, 2, 1, 3}, 6.0};
  EXPECT_TRUE(has_rule(check_cspp_path(g, 0, 3, 4, missing_edge), "cspp/missing-edge"));

  const CsppResult bad_weight{{0, 1, 2, 3}, 5.0};
  EXPECT_TRUE(has_rule(check_cspp_path(g, 0, 3, 4, bad_weight), "cspp/weight"));

  const CsppResult wrong_ends{{1, 2, 3, 0}, 6.0};
  const CheckResult res = check_cspp_path(g, 0, 3, 4, wrong_ends);
  EXPECT_TRUE(has_rule(res, "cspp/source"));
  EXPECT_TRUE(has_rule(res, "cspp/target"));
}

TEST(CheckIntervalSelectionTest, ShapeRules) {
  const std::vector<std::size_t> good{0, 3, 9};
  EXPECT_TRUE(check_interval_selection(10, 3, good).ok());

  const std::vector<std::size_t> no_first{1, 3, 9};
  EXPECT_TRUE(has_rule(check_interval_selection(10, 3, no_first), "selection/first-endpoint"));

  const std::vector<std::size_t> no_last{0, 3, 8};
  EXPECT_TRUE(has_rule(check_interval_selection(10, 3, no_last), "selection/last-endpoint"));

  const std::vector<std::size_t> not_monotone{0, 5, 3, 9};
  EXPECT_TRUE(has_rule(check_interval_selection(10, 4, not_monotone), "selection/monotone"));

  const std::vector<std::size_t> wrong_k{0, 9};
  EXPECT_TRUE(has_rule(check_interval_selection(10, 3, wrong_k), "selection/cardinality"));
}

TEST(CheckCertificateTest, AcceptsRealSelections) {
  Pcg32 rng(21);
  for (int iter = 0; iter < 10; ++iter) {
    const RList list = test::random_r_list(6 + rng.below(20), rng);
    const std::size_t k = 2 + rng.below(static_cast<std::uint32_t>(list.size() - 2));
    const SelectionResult sel = r_selection(list, k);
    EXPECT_TRUE(check_selection_certificate(list, sel, k).ok());
    // Keep-everything contract.
    const SelectionResult all = r_selection(list, 0);
    EXPECT_TRUE(check_selection_certificate(list, all, 0).ok());
  }
}

TEST(CheckCertificateTest, RejectsWrongErrorOrShape) {
  Pcg32 rng(22);
  const RList list = test::random_r_list(12, rng);
  SelectionResult sel = r_selection(list, 4);

  SelectionResult lying = sel;
  lying.error += 1;
  EXPECT_TRUE(has_rule(check_selection_certificate(list, lying, 4), "certificate/error"));

  SelectionResult truncated = sel;
  truncated.kept.pop_back();
  EXPECT_FALSE(check_selection_certificate(list, truncated, 4).ok());

  SelectionResult not_identity = sel;
  EXPECT_TRUE(
      has_rule(check_selection_certificate(list, not_identity, 0), "certificate/keep-all"));
}

TEST(CheckCertificateTest, LSelectionCertificates) {
  Pcg32 rng(23);
  for (const LpMetric metric : {LpMetric::L1, LpMetric::L2, LpMetric::LInf}) {
    const LList chain = test::random_l_chain(14, rng);
    LSelectionOptions opts;
    opts.metric = metric;
    const SelectionResult sel = l_selection(chain, 5, opts);
    EXPECT_TRUE(check_l_selection_certificate(chain, sel, 5, metric).ok());

    SelectionResult lying = sel;
    lying.error += 10;
    EXPECT_TRUE(
        has_rule(check_l_selection_certificate(chain, lying, 5, metric), "certificate/error"));
  }
}

class CheckPlacementTest : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = parse_floorplan("(W a b c d (V e f))",
                            parse_module_library(
                                "a 5x3 4x4 3x6\nb 4x5 3x7\nc 2x2 3x1\nd 4x4 5x3\ne 3x3\nf 3x4\n"));
    outcome_ = optimize_floorplan(tree_);
    ASSERT_FALSE(outcome_.out_of_memory);
    placement_ = trace_placement(tree_, outcome_, outcome_.root.min_area_index());
  }

  FloorplanTree tree_;
  OptimizeOutcome outcome_;
  Placement placement_;
};

TEST_F(CheckPlacementTest, AcceptsTracedPlacements) {
  EXPECT_TRUE(check_placement(placement_, tree_).ok())
      << check_placement(placement_, tree_).report();
}

TEST_F(CheckPlacementTest, RejectsDoctoredPlacements) {
  Placement shifted = placement_;
  shifted.rooms[0].room.x += 1;  // now overlaps a neighbor or exits the chip
  EXPECT_FALSE(check_placement(shifted, tree_).ok());

  Placement wrong_impl = placement_;
  wrong_impl.rooms[0].impl = {9999, 9999};
  const CheckResult res = check_placement(wrong_impl, tree_);
  EXPECT_TRUE(has_rule(res, "placement/impl-membership"));
  EXPECT_TRUE(has_rule(res, "placement/impl-fit"));

  Placement duplicated = placement_;
  duplicated.rooms[1].module_id = duplicated.rooms[0].module_id;
  EXPECT_TRUE(has_rule(check_placement(duplicated, tree_), "placement/module-usage"));

  Placement stretched = placement_;
  stretched.width += 2;  // bounding box and area accounting both break
  const CheckResult res2 = check_placement(stretched, tree_);
  EXPECT_TRUE(has_rule(res2, "placement/area-accounting"));
  EXPECT_TRUE(has_rule(res2, "placement/bbox"));
}

TEST(EnforceTest, AbortsOnViolations) {
  CheckResult bad;
  bad.add("test/rule", "here", "broken");
  EXPECT_DEATH(enforce(bad, "EnforceTest"), "test/rule");

  const CheckResult good;
  enforce(good, "EnforceTest");  // must be a no-op
}

}  // namespace
}  // namespace fpopt
