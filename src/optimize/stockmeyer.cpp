#include "optimize/stockmeyer.h"

#include "kernel/arena.h"
#include "kernel/soa.h"
#include "kernel/sweep.h"

namespace fpopt {
namespace {

/// One Stockmeyer merge step, batched: the right-hand curve is gathered
/// into SoA rows once, then each a_i produces its whole candidate row
/// with two broadcast helpers (w/h roles swap with the slice direction).
/// Candidates appear in the same (i, j) order as the scalar double loop,
/// and RList::from_candidates prunes order-insensitively on top.
RList merge_curves(const RList& a_curve, const RList& b_curve, bool vertical) {
  std::vector<RectImpl> cands;
  cands.reserve(a_curve.size() * b_curve.size());
  kernel::Arena& arena = kernel::scratch_arena();
  kernel::ArenaScope scope(arena);
  const kernel::RCurveSoA bs = kernel::load_r_curve(arena, b_curve.impls());
  Dim* ow = scope.alloc_array<Dim>(bs.n);
  Dim* oh = scope.alloc_array<Dim>(bs.n);
  for (const RectImpl& a : a_curve) {
    if (vertical) {
      kernel::add_broadcast(bs.w, bs.n, a.w, ow);  // a.w + b.w
      kernel::max_broadcast(bs.h, bs.n, a.h, oh);  // max(a.h, b.h)
    } else {
      kernel::max_broadcast(bs.w, bs.n, a.w, ow);  // max(a.w, b.w)
      kernel::add_broadcast(bs.h, bs.n, a.h, oh);  // a.h + b.h
    }
    for (std::size_t i = 0; i < bs.n; ++i) cands.push_back({ow[i], oh[i]});
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
