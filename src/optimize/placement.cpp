#include "optimize/placement.h"

#include <algorithm>
#include <cassert>
#include <sstream>

namespace fpopt {

Area Placement::total_module_area() const {
  Area total = 0;
  for (const ModulePlacement& m : rooms) total += m.impl.area();
  return total;
}

namespace {

/// An L-shaped target region at an absolute position: bottom strip
/// [x, x+w1] x [y, y+h2] plus left column [x, x+w2] x [y, y+h1].
struct LTarget {
  Dim x, y, w1, w2, h1, h2;
};

class Tracer {
 public:
  Tracer(const FloorplanTree& tree, const OptimizeArtifacts& art) : tree_(tree), art_(art) {}

  std::vector<ModulePlacement> take_rooms() && { return std::move(rooms_); }

  /// Place a rectangular block's implementation `impl_idx` into `room`
  /// (room is always at least as large as the implementation; the
  /// recursion decides which child room absorbs the slack).
  void assign_rect(const BinaryNode& node, std::size_t impl_idx, PlacedRect room) {
    const NodeResult& res = *art_.nodes[node.id];
    assert(!res.is_l);
    const RectImpl impl = res.rlist[impl_idx];
    assert(room.w >= impl.w && room.h >= impl.h);
    const Prov prov = res.rprov[impl_idx];

    switch (node.op) {
      case BinaryOp::LeafModule:
        rooms_.push_back({node.module_id, room, tree_.module(node.module_id).impls[prov.left]});
        return;
      case BinaryOp::SliceV: {
        // Left child keeps its exact width; the right child absorbs the
        // horizontal slack; both stretch to the full room height.
        const RectImpl left = art_.nodes[node.left->id]->rlist[prov.left];
        assign_rect(*node.left, prov.left, {room.x, room.y, left.w, room.h});
        assign_rect(*node.right, prov.right,
                    {room.x + left.w, room.y, room.w - left.w, room.h});
        return;
      }
      case BinaryOp::SliceH: {
        const RectImpl left = art_.nodes[node.left->id]->rlist[prov.left];
        assign_rect(*node.left, prov.left, {room.x, room.y, room.w, left.h});
        assign_rect(*node.right, prov.right,
                    {room.x, room.y + left.h, room.w, room.h - left.h});
        return;
      }
      case BinaryOp::WheelClose: {
        // Child L keeps its exact (w2, h2); the Top module's room is the
        // remaining notch [w2, W] x [h2, H] and absorbs both slacks.
        const LImpl* l = art_.nodes[node.left->id]->find_l(prov.left);
        assert(l != nullptr);
        const std::size_t first_room = rooms_.size();
        assign_l(*node.left, prov.left, {room.x, room.y, room.w, l->w2, room.h, l->h2});
        assign_rect(*node.right, prov.right,
                    {room.x + l->w2, room.y + l->h2, room.w - l->w2, room.h - l->h2});
        if (node.chirality == WheelChirality::CounterClockwise) {
          // The wheel was evaluated in clockwise canonical form; reflect
          // every room the subtree produced across the frame's vertical axis.
          for (std::size_t r = first_room; r < rooms_.size(); ++r) {
            rooms_[r].room = rooms_[r].room.mirrored_x(room);
          }
        }
        return;
      }
      default:
        assert(false && "assign_rect called on an L-block node");
    }
  }

  /// Place an L block's entry `entry_id` into target `t`. Invariants
  /// guaranteed by the callers (see combine.h's lazy-stretch formulas):
  /// t.w2 == impl.w2 always; t.h2 == impl.h2 except at WheelFillNotch,
  /// whose Center room absorbs the difference; t.w1 >= impl.w1,
  /// t.h1 >= impl.h1, and t.h1 - t.h2 >= impl.h1 - impl.h2.
  void assign_l(const BinaryNode& node, std::uint32_t entry_id, LTarget t) {
    const NodeResult& res = *art_.nodes[node.id];
    assert(res.is_l);
    const LImpl* me = res.find_l(entry_id);
    assert(me != nullptr);
    assert(t.w2 == me->w2 && t.w1 >= me->w1 && t.h1 >= me->h1 && t.h2 >= me->h2);
    const Prov prov = res.lprov[entry_id];

    switch (node.op) {
      case BinaryOp::WheelStack: {
        // Bottom strip (full width) is the Bottom child's room; the left
        // column above it is the Left child's room.
        assert(t.h2 == me->h2);
        assign_rect(*node.left, prov.left, {t.x, t.y, t.w1, t.h2});
        assign_rect(*node.right, prov.right, {t.x, t.y + t.h2, t.w2, t.h1 - t.h2});
        return;
      }
      case BinaryOp::WheelFillNotch: {
        // Center room sits on the child's bottom strip, right of the
        // column, and absorbs all slack of the notch region.
        const LImpl* child = art_.nodes[node.left->id]->find_l(prov.left);
        assert(child != nullptr);
        assign_l(*node.left, prov.left, {t.x, t.y, t.w1, t.w2, t.h1, child->h2});
        assign_rect(*node.right, prov.right,
                    {t.x + t.w2, t.y + child->h2, t.w1 - t.w2, t.h2 - child->h2});
        return;
      }
      case BinaryOp::WheelExtend: {
        // Right column keeps its exact width, pinned to the right edge,
        // spanning the full bottom-strip height.
        assert(t.h2 == me->h2);
        const RectImpl c = art_.nodes[node.right->id]->rlist[prov.right];
        assign_l(*node.left, prov.left, {t.x, t.y, t.w1 - c.w, t.w2, t.h1, t.h2});
        assign_rect(*node.right, prov.right, {t.x + t.w1 - c.w, t.y, c.w, t.h2});
        return;
      }
      default:
        assert(false && "assign_l called on a rect-block node");
    }
  }

 private:
  const FloorplanTree& tree_;
  const OptimizeArtifacts& art_;
  std::vector<ModulePlacement> rooms_;
};

}  // namespace

Placement trace_placement(const FloorplanTree& tree, const OptimizeOutcome& outcome,
                          std::size_t root_impl_index) {
  assert(outcome.artifacts != nullptr && "traceback needs a successful run");
  const OptimizeArtifacts& art = *outcome.artifacts;
  const RectImpl chip = outcome.root[root_impl_index];

  Placement placement;
  placement.width = chip.w;
  placement.height = chip.h;
  Tracer tracer(tree, art);
  tracer.assign_rect(*art.btree.root, root_impl_index, {0, 0, chip.w, chip.h});
  placement.rooms = std::move(tracer).take_rooms();
  return placement;
}

std::vector<std::string> validate_placement(const Placement& placement,
                                            const FloorplanTree& tree) {
  std::vector<std::string> errors;
  const PlacedRect chip{0, 0, placement.width, placement.height};
  std::vector<std::size_t> seen(tree.module_count(), 0);
  Area room_area = 0;

  for (const ModulePlacement& m : placement.rooms) {
    const std::string name =
        m.module_id < tree.module_count() ? tree.module(m.module_id).name : "<bad id>";
    if (m.module_id >= tree.module_count()) {
      errors.push_back("room references invalid module id");
      continue;
    }
    ++seen[m.module_id];
    if (!m.room.valid()) errors.push_back("module '" + name + "' has a degenerate room");
    if (!chip.contains(m.room)) errors.push_back("module '" + name + "' room leaves the chip");
    if (m.room.w < m.impl.w || m.room.h < m.impl.h) {
      errors.push_back("module '" + name + "' implementation does not fit its room");
    }
    const auto& impls = tree.module(m.module_id).impls;
    if (std::find(impls.begin(), impls.end(), m.impl) == impls.end()) {
      errors.push_back("module '" + name + "' uses an implementation outside its list");
    }
    room_area += m.room.area();
  }

  for (std::size_t id = 0; id < seen.size(); ++id) {
    if (seen[id] != 1) {
      errors.push_back("module '" + tree.module(id).name + "' placed " +
                       std::to_string(seen[id]) + " times");
    }
  }

  for (std::size_t i = 0; i < placement.rooms.size(); ++i) {
    for (std::size_t j = i + 1; j < placement.rooms.size(); ++j) {
      if (placement.rooms[i].room.overlaps(placement.rooms[j].room)) {
        errors.push_back("rooms of '" + tree.module(placement.rooms[i].module_id).name +
                         "' and '" + tree.module(placement.rooms[j].module_id).name +
                         "' overlap");
      }
    }
  }

  if (room_area != placement.chip_area()) {
    errors.push_back("rooms cover " + std::to_string(room_area) + " of " +
                     std::to_string(placement.chip_area()) + " chip area (not a tiling)");
  }
  return errors;
}

std::string render_ascii(const Placement& placement, const FloorplanTree& tree,
                         std::size_t max_cols) {
  if (placement.width <= 0 || placement.height <= 0) return "<empty placement>\n";
  const std::size_t cols = std::min<std::size_t>(max_cols, 96);
  const std::size_t rows = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(cols) *
                                  static_cast<double>(placement.height) /
                                  (2.0 * static_cast<double>(placement.width))));
  std::vector<std::string> grid(rows, std::string(cols, '.'));

  for (std::size_t idx = 0; idx < placement.rooms.size(); ++idx) {
    const ModulePlacement& m = placement.rooms[idx];
    const char tag = tree.module(m.module_id).name.empty()
                         ? '?'
                         : tree.module(m.module_id).name.back();
    const auto to_col = [&](Dim x) {
      return static_cast<std::size_t>(static_cast<double>(x) * static_cast<double>(cols) /
                                      static_cast<double>(placement.width));
    };
    const auto to_row = [&](Dim y) {
      return static_cast<std::size_t>(static_cast<double>(y) * static_cast<double>(rows) /
                                      static_cast<double>(placement.height));
    };
    const std::size_t c0 = to_col(m.room.x);
    const std::size_t c1 = std::max(c0 + 1, to_col(m.room.x2()));
    const std::size_t r0 = to_row(m.room.y);
    const std::size_t r1 = std::max(r0 + 1, to_row(m.room.y2()));
    for (std::size_t r = r0; r < std::min(r1, rows); ++r) {
      for (std::size_t c = c0; c < std::min(c1, cols); ++c) grid[r][c] = tag;
    }
  }

  std::ostringstream out;
  for (auto it = grid.rbegin(); it != grid.rend(); ++it) out << *it << '\n';
  return out.str();
}

}  // namespace fpopt
