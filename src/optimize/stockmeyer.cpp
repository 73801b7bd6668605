#include "optimize/stockmeyer.h"

#include <algorithm>

namespace fpopt {
namespace {

/// One Stockmeyer merge step: the candidate of every (a_i, b_j) pair in
/// (i, j) order, pruned by RList::from_candidates.
RList merge_curves(const RList& a_curve, const RList& b_curve, bool vertical) {
  std::vector<RectImpl> cands;
  cands.reserve(a_curve.size() * b_curve.size());
  for (const RectImpl& a : a_curve) {
    for (const RectImpl& b : b_curve) {
      cands.push_back(vertical ? RectImpl{a.w + b.w, std::max(a.h, b.h)}
                               : RectImpl{std::max(a.w, b.w), a.h + b.h});
    }
  }
  return RList::from_candidates(std::move(cands));
}

std::optional<RList> curve_of(const FloorplanNode& node, const FloorplanTree& tree) {
  switch (node.kind) {
    case NodeKind::Leaf:
      return tree.module(node.module_id).impls;
    case NodeKind::Wheel:
      return std::nullopt;
    case NodeKind::Slice:
      break;
  }

  std::optional<RList> acc;
  for (const auto& child : node.children) {
    std::optional<RList> c = curve_of(*child, tree);
    if (!c) return std::nullopt;
    if (!acc) {
      acc = std::move(c);
      continue;
    }
    acc = merge_curves(*acc, *c, node.dir == SliceDir::Vertical);
  }
  return acc;
}

}  // namespace

std::optional<RList> stockmeyer_shape_curve(const FloorplanTree& tree) {
  return curve_of(tree.root(), tree);
}

std::optional<Area> stockmeyer_best_area(const FloorplanTree& tree) {
  const std::optional<RList> curve = stockmeyer_shape_curve(tree);
  if (!curve || curve->empty()) return std::nullopt;
  return (*curve)[curve->min_area_index()].area();
}

}  // namespace fpopt
