// Tests for floorplan trees: construction, validation, stats,
// restructuring into T', and text (de)serialization.
#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "floorplan/restructure.h"
#include "floorplan/serialize.h"
#include "floorplan/tree.h"
#include "optimize/optimizer.h"
#include "workload/floorplans.h"

namespace fpopt {
namespace {

std::vector<Module> three_modules() {
  return parse_module_library("a 2x3 3x2\nb 4x4\nc 1x5 5x1\n");
}

std::vector<Module> five_modules() {
  return parse_module_library("a 2x3\nb 4x4\nc 1x5\nd 3x3\ne 2x2\n");
}

TEST(TreeTest, ValidTreePassesValidation) {
  FloorplanTree tree = parse_floorplan("(V a (H b c))", three_modules());
  EXPECT_TRUE(tree.validate().empty());
  const TreeStats s = tree.stats();
  EXPECT_EQ(s.leaf_count, 3u);
  EXPECT_EQ(s.slice_count, 2u);
  EXPECT_EQ(s.wheel_count, 0u);
  EXPECT_EQ(s.depth, 3u);
}

TEST(TreeTest, WheelStatsAndValidation) {
  FloorplanTree tree = parse_floorplan("(W a b c d e)", five_modules());
  EXPECT_TRUE(tree.validate().empty());
  EXPECT_EQ(tree.stats().wheel_count, 1u);
  EXPECT_EQ(tree.stats().leaf_count, 5u);
}

TEST(TreeTest, DetectsUnusedAndReusedModules) {
  auto mods = three_modules();
  {
    FloorplanTree unused(mods, FloorplanNode::slice(SliceDir::Vertical, [] {
      std::vector<std::unique_ptr<FloorplanNode>> ch;
      ch.push_back(FloorplanNode::leaf(0));
      ch.push_back(FloorplanNode::leaf(1));
      return ch;
    }()));
    const auto errors = unused.validate();
    ASSERT_FALSE(errors.empty());
  }
  {
    FloorplanTree reused(mods, FloorplanNode::slice(SliceDir::Vertical, [] {
      std::vector<std::unique_ptr<FloorplanNode>> ch;
      ch.push_back(FloorplanNode::leaf(0));
      ch.push_back(FloorplanNode::leaf(0));
      ch.push_back(FloorplanNode::leaf(1));
      ch.push_back(FloorplanNode::leaf(2));
      return ch;
    }()));
    EXPECT_FALSE(reused.validate().empty());
  }
}

TEST(TreeTest, DetectsBadModuleId) {
  FloorplanTree tree(three_modules(), FloorplanNode::slice(SliceDir::Vertical, [] {
    std::vector<std::unique_ptr<FloorplanNode>> ch;
    ch.push_back(FloorplanNode::leaf(0));
    ch.push_back(FloorplanNode::leaf(99));
    return ch;
  }()));
  EXPECT_FALSE(tree.validate().empty());
}

TEST(SerializeTest, TopologyRoundTrips) {
  const std::string topo = "(V a (H b c))";
  FloorplanTree tree = parse_floorplan(topo, three_modules());
  EXPECT_EQ(to_topology_string(tree), topo);

  const std::string wheel = "(M a (V b c) d (H e f) g)";
  FloorplanTree wtree = parse_floorplan(
      wheel, parse_module_library("a 1x1\nb 1x1\nc 1x1\nd 1x1\ne 1x1\nf 1x1\ng 1x1\n"));
  EXPECT_EQ(to_topology_string(wtree), wheel);
}

TEST(SerializeTest, ModuleLibraryRoundTrips) {
  const auto mods = parse_module_library("# comment line\na 2x3 3x2\nb 4x4  # trailing\n");
  ASSERT_EQ(mods.size(), 2u);
  EXPECT_EQ(mods[0].impls.size(), 2u);
  const auto again = parse_module_library(to_module_library_string(mods));
  EXPECT_EQ(again, mods);
}

TEST(SerializeTest, LibraryPrunesRedundantImplementations) {
  const auto mods = parse_module_library("a 5x5 4x4 6x6 4x6\n");
  ASSERT_EQ(mods.size(), 1u);
  EXPECT_EQ(mods[0].impls.size(), 1u);
  EXPECT_EQ(mods[0].impls[0], (RectImpl{4, 4}));
}

TEST(SerializeTest, ParseErrors) {
  EXPECT_THROW(parse_floorplan("(V a)", three_modules()), ParseError);
  EXPECT_THROW(parse_floorplan("(V a unknown)", three_modules()), ParseError);
  EXPECT_THROW(parse_floorplan("(W a b c)", five_modules()), ParseError);
  EXPECT_THROW(parse_floorplan("(X a b)", three_modules()), ParseError);
  EXPECT_THROW(parse_floorplan("(V a (H b c)) extra", three_modules()), ParseError);
  EXPECT_THROW(parse_module_library("a 2y3\n"), ParseError);
  EXPECT_THROW(parse_module_library("a 0x3\n"), ParseError);
  EXPECT_THROW(parse_module_library("a\n"), ParseError);
  EXPECT_THROW(parse_floorplan("(V a a b)", [] {
    auto m = parse_module_library("a 1x1\na 2x2\nb 1x1\n");
    return m;
  }()), ParseError);
}

TEST(ModuleTest, DigestFollowsTheListThroughCopyMoveAndAssignment) {
  // Memo-cache leaf keys are built from the digest, so it must always be
  // the digest of the list the module holds right now.
  const RList list = RList::from_candidates({{8, 2}, {5, 3}, {3, 7}});
  const RList other = RList::from_candidates({{8, 2}, {5, 3}, {3, 6}});
  const Hash128 want = Module("fresh", list).impls.digest();

  Module m("m", list);
  EXPECT_EQ(m.impls.digest(), want);
  const Module copy = m;
  EXPECT_EQ(copy.impls.digest(), want);
  Module assigned;
  assigned = copy;
  EXPECT_EQ(assigned.impls.digest(), want);
  const Module moved = std::move(m);
  EXPECT_EQ(moved.impls.digest(), want);
  Module move_assigned;
  move_assigned = Module("n", list);
  EXPECT_EQ(move_assigned.impls.digest(), want);

  Module changed("c", list);
  changed.impls = other;
  EXPECT_NE(changed.impls.digest(), want);
  EXPECT_EQ(changed.impls.digest(), Module("fresh", other).impls.digest());
  changed.impls = list;
  EXPECT_EQ(changed.impls.digest(), want);

  EXPECT_EQ(Module{}.impls.digest(), Module("empty", RList{}).impls.digest());
  EXPECT_NE(Module{}.impls.digest(), want);
}

TEST(WithRotationTest, CurveBecomesSymmetricAndIrreducible) {
  const Module m{"m", RList::from_candidates({{8, 2}, {5, 3}})};
  const Module rotated = with_rotation(m);
  EXPECT_TRUE(is_irreducible_r_list(rotated.impls.impls()));
  // Both orientations of every original implementation are feasible.
  for (const RectImpl& r : m.impls) {
    EXPECT_LE(rotated.impls.min_height_at(r.w).value(), r.h);
    EXPECT_LE(rotated.impls.min_height_at(r.h).value(), r.w);
  }
  // Symmetry: (w, h) feasible iff (h, w) feasible.
  for (const RectImpl& r : rotated.impls) {
    const std::optional<Dim> h = rotated.impls.min_height_at(r.h);
    ASSERT_TRUE(h.has_value());
    EXPECT_LE(*h, r.w);
  }
}

TEST(WithRotationTest, SquareImplementationsDoNotDuplicate) {
  const Module m{"sq", RList::from_candidates({{4, 4}})};
  EXPECT_EQ(with_rotation(m).impls.size(), 1u);
}

TEST(WithRotationTest, RotationCanOnlyImproveTheFloorplan) {
  auto modules = parse_module_library("a 8x2\nb 8x2\n");
  FloorplanTree fixed = parse_floorplan("(V a b)", modules);
  std::vector<Module> rotated_mods;
  for (const Module& m : modules) rotated_mods.push_back(with_rotation(m));
  FloorplanTree rotated = parse_floorplan("(V a b)", std::move(rotated_mods));
  // Fixed: 16x2 = 32. Rotated: 2x8 | 2x8 -> 4x8 = 32, or mixed... still 32?
  // (2,8)+(2,8) -> 4x8 = 32; (8,2)+(8,2) -> 16x2 = 32. Equal here, so use a
  // case where it strictly helps:
  auto modules2 = parse_module_library("a 8x2\nb 2x8\n");
  FloorplanTree fixed2 = parse_floorplan("(V a b)", modules2);
  std::vector<Module> rot2;
  for (const Module& m : modules2) rot2.push_back(with_rotation(m));
  FloorplanTree rotated2 = parse_floorplan("(V a b)", std::move(rot2));
  const Area fixed_area = optimize_floorplan(fixed2, {}).best_area;    // 10x8 = 80
  const Area rotated_area = optimize_floorplan(rotated2, {}).best_area;  // 4x8 = 32
  EXPECT_LT(rotated_area, fixed_area);
  EXPECT_EQ(rotated_area, 32);
  EXPECT_EQ(optimize_floorplan(fixed, {}).best_area,
            optimize_floorplan(rotated, {}).best_area);
}

TEST(RestructureTest, SliceFanoutBecomesLeftDeepChain) {
  FloorplanTree tree = parse_floorplan(
      "(V a b c d)", parse_module_library("a 1x1\nb 1x1\nc 1x1\nd 1x1\n"));
  const BinaryTree bt = restructure(tree);
  // 4 leaves + 3 slice nodes.
  EXPECT_EQ(bt.node_count, 7u);
  const BinaryNode* n = bt.root.get();
  ASSERT_EQ(n->op, BinaryOp::SliceV);
  EXPECT_EQ(n->right->op, BinaryOp::LeafModule);
  EXPECT_EQ(n->right->module_id, 3u);
  n = n->left.get();
  ASSERT_EQ(n->op, BinaryOp::SliceV);
  EXPECT_EQ(n->right->module_id, 2u);
  n = n->left.get();
  ASSERT_EQ(n->op, BinaryOp::SliceV);
  EXPECT_EQ(n->left->module_id, 0u);
  EXPECT_EQ(n->right->module_id, 1u);
}

TEST(RestructureTest, BalancedSlicesReduceDepth) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 3;
  std::vector<std::unique_ptr<FloorplanNode>> ch;
  for (std::size_t i = 0; i < 8; ++i) ch.push_back(FloorplanNode::leaf(i));
  FloorplanTree wide(generate_modules(8, cfg.module_config(), 1),
                     FloorplanNode::slice(SliceDir::Horizontal, std::move(ch)));
  RestructureOptions balanced;
  balanced.balanced_slices = true;
  const BinaryTree bt = restructure(wide, balanced);
  // Balanced fold of 8 leaves: depth 3 of slice nodes.
  std::size_t depth = 0;
  for (const BinaryNode* n = bt.root.get(); n != nullptr; n = n->left.get()) ++depth;
  EXPECT_EQ(depth, 4u);  // 3 internal + 1 leaf on the leftmost path
  EXPECT_EQ(bt.node_count, 15u);
}

TEST(RestructureTest, WheelBecomesTheFourOpAssembly) {
  FloorplanTree tree = parse_floorplan("(W a b c d e)", five_modules());
  const BinaryTree bt = restructure(tree);
  EXPECT_EQ(bt.node_count, 9u);  // 5 leaves + 4 ops
  const BinaryNode* n = bt.root.get();
  ASSERT_EQ(n->op, BinaryOp::WheelClose);
  EXPECT_FALSE(n->is_l_block());
  EXPECT_EQ(n->right->module_id, 4u) << "Top child closes the wheel";
  n = n->left.get();
  ASSERT_EQ(n->op, BinaryOp::WheelExtend);
  EXPECT_TRUE(n->is_l_block());
  EXPECT_EQ(n->right->module_id, 3u);
  n = n->left.get();
  ASSERT_EQ(n->op, BinaryOp::WheelFillNotch);
  EXPECT_EQ(n->right->module_id, 2u);
  n = n->left.get();
  ASSERT_EQ(n->op, BinaryOp::WheelStack);
  EXPECT_EQ(n->left->module_id, 0u);
  EXPECT_EQ(n->right->module_id, 1u);
}

TEST(RestructureTest, ChiralityIsRecordedOnTheCloseNode) {
  FloorplanTree tree = parse_floorplan("(M a b c d e)", five_modules());
  const BinaryTree bt = restructure(tree);
  EXPECT_EQ(bt.root->chirality, WheelChirality::CounterClockwise);
}

// ---- degenerate chains (coverage gaps) ----------------------------------

TEST(RestructureTest, SingleLeafTreeIsItsOwnBinaryTree) {
  FloorplanTree tree(parse_module_library("only 2x3 3x2\n"), FloorplanNode::leaf(0));
  ASSERT_TRUE(tree.validate().empty());
  const BinaryTree bt = restructure(tree);
  EXPECT_EQ(bt.node_count, 1u);
  ASSERT_NE(bt.root, nullptr);
  EXPECT_TRUE(bt.root->is_leaf());
  EXPECT_EQ(bt.root->module_id, 0u);
  EXPECT_EQ(bt.root->id, 0u);
  // The engine handles the trivial tree: the curve is the module library.
  const OptimizeOutcome out = optimize_floorplan(tree, {});
  ASSERT_FALSE(out.out_of_memory);
  EXPECT_EQ(out.best_area, 6);
  EXPECT_EQ(out.root.size(), 2u);
}

TEST(RestructureTest, NestedBinaryChainRestructuresToItself) {
  // (V m0 (H m1 (V m2 (H m3 m4)))) is already binary: restructuring must
  // neither add nodes nor reassociate, whatever the fold mode.
  const std::string topo = "(V a (H b (V c (H d e))))";
  FloorplanTree tree = parse_floorplan(topo, five_modules());
  for (const bool balanced : {false, true}) {
    RestructureOptions opts;
    opts.balanced_slices = balanced;
    const BinaryTree bt = restructure(tree, opts);
    EXPECT_EQ(bt.node_count, 9u) << "balanced=" << balanced;  // 5 leaves + 4 slices
    const BinaryNode* n = bt.root.get();
    ASSERT_EQ(n->op, BinaryOp::SliceV);
    EXPECT_EQ(n->left->module_id, 0u);
    n = n->right.get();
    ASSERT_EQ(n->op, BinaryOp::SliceH);
    EXPECT_EQ(n->left->module_id, 1u);
    n = n->right.get();
    ASSERT_EQ(n->op, BinaryOp::SliceV);
    n = n->right.get();
    ASSERT_EQ(n->op, BinaryOp::SliceH);
    EXPECT_EQ(n->left->module_id, 3u);
    EXPECT_EQ(n->right->module_id, 4u);
  }
}

TEST(RestructureTest, HighFanoutSpineKeepsChildOrderAndArea) {
  // One slice with 16 children: the left-deep spine has 15 slice nodes in
  // child order; the balanced fold has the same leaves and the same
  // optimal area (slicing is associative in area).
  std::vector<std::unique_ptr<FloorplanNode>> ch;
  std::string lib;
  for (std::size_t i = 0; i < 16; ++i) {
    ch.push_back(FloorplanNode::leaf(i));
    lib += "m" + std::to_string(i) + " 2x3 3x2\n";
  }
  FloorplanTree tree(parse_module_library(lib),
                     FloorplanNode::slice(SliceDir::Horizontal, std::move(ch)));
  ASSERT_TRUE(tree.validate().empty());

  const BinaryTree deep = restructure(tree);
  EXPECT_EQ(deep.node_count, 31u);
  std::size_t spine = 0;
  const BinaryNode* n = deep.root.get();
  std::vector<std::size_t> right_leaves;
  while (!n->is_leaf()) {
    EXPECT_EQ(n->op, BinaryOp::SliceH);
    if (n->right->is_leaf()) right_leaves.push_back(n->right->module_id);
    ++spine;
    n = n->left.get();
  }
  EXPECT_EQ(spine, 15u);
  EXPECT_EQ(n->module_id, 0u) << "left-most leaf is the first child";
  // Right leaves appear in reverse child order down the spine.
  for (std::size_t i = 0; i < right_leaves.size(); ++i) {
    EXPECT_EQ(right_leaves[i], 15u - i);
  }

  RestructureOptions balanced;
  balanced.balanced_slices = true;
  const BinaryTree flat = restructure(tree, balanced);
  EXPECT_EQ(flat.node_count, 31u);
  OptimizerOptions bopts;
  bopts.restructure = balanced;
  EXPECT_EQ(optimize_floorplan(tree, {}).best_area, optimize_floorplan(tree, bopts).best_area);
}

TEST(RestructureTest, TwoChildSliceIsTheSameInBothFoldModes) {
  FloorplanTree tree = parse_floorplan("(H a b)", parse_module_library("a 2x3\nb 4x4\n"));
  RestructureOptions balanced;
  balanced.balanced_slices = true;
  const BinaryTree a = restructure(tree);
  const BinaryTree b = restructure(tree, balanced);
  EXPECT_EQ(a.node_count, 3u);
  EXPECT_EQ(b.node_count, 3u);
  EXPECT_EQ(a.root->op, BinaryOp::SliceH);
  EXPECT_EQ(b.root->op, BinaryOp::SliceH);
  EXPECT_EQ(a.root->left->module_id, b.root->left->module_id);
  EXPECT_EQ(a.root->right->module_id, b.root->right->module_id);
}

TEST(RestructureTest, PreorderIdsAreDense) {
  WorkloadConfig cfg;
  cfg.impls_per_module = 2;
  FloorplanTree tree = make_fp1(cfg);
  const BinaryTree bt = restructure(tree);
  std::vector<bool> seen(bt.node_count, false);
  const std::function<void(const BinaryNode&)> walk = [&](const BinaryNode& n) {
    ASSERT_LT(n.id, bt.node_count);
    EXPECT_FALSE(seen[n.id]);
    seen[n.id] = true;
    if (n.left) walk(*n.left);
    if (n.right) walk(*n.right);
  };
  walk(*bt.root);
  for (const bool b : seen) EXPECT_TRUE(b);
}

}  // namespace
}  // namespace fpopt
