// Shared helpers for the fpopt test suite: deterministic random inputs and
// brute-force oracles the optimized algorithms are checked against.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <ios>
#include <sstream>
#include <string>
#include <vector>

#include "core/l_error.h"
#include "floorplan/tree.h"
#include "geometry/l_impl.h"
#include "geometry/rect_impl.h"
#include "optimize/stats.h"
#include "shape/l_list.h"
#include "shape/r_list.h"
#include "workload/rng.h"

namespace fpopt::test {

/// Random irreducible R-list with exactly n corners.
inline RList random_r_list(std::size_t n, Pcg32& rng, Dim max_step = 9) {
  std::vector<RectImpl> impls(n);
  Dim w = 1 + static_cast<Dim>(rng.below(20));
  Dim h = 1 + static_cast<Dim>(rng.below(20));
  for (std::size_t i = n; i-- > 0;) {
    impls[i] = {w, 0};
    w += 1 + static_cast<Dim>(rng.below(static_cast<std::uint32_t>(max_step)));
  }
  for (std::size_t i = 0; i < n; ++i) {
    impls[i].h = h;
    h += 1 + static_cast<Dim>(rng.below(static_cast<std::uint32_t>(max_step)));
  }
  return RList::from_sorted_unchecked(std::move(impls));
}

/// Random irreducible L-list (chain) with exactly n entries, ids 0..n-1.
inline LList random_l_chain(std::size_t n, Pcg32& rng, Dim max_step = 9) {
  const Dim w2 = 5 + static_cast<Dim>(rng.below(20));
  std::vector<LEntry> entries(n);
  Dim w1 = w2 + static_cast<Dim>(rng.below(10));
  for (std::size_t i = n; i-- > 0;) {
    entries[i].shape.w1 = w1;
    entries[i].shape.w2 = w2;
    entries[i].id = static_cast<std::uint32_t>(i);
    w1 += 1 + static_cast<Dim>(rng.below(static_cast<std::uint32_t>(max_step)));
  }
  Dim h2 = 1 + static_cast<Dim>(rng.below(10));
  Dim h1 = h2 + static_cast<Dim>(rng.below(10));
  for (std::size_t i = 0; i < n; ++i) {
    // Heights non-decreasing with at least one strict increase per step.
    const Dim dh2 = static_cast<Dim>(rng.below(static_cast<std::uint32_t>(max_step)));
    const Dim dh1 = static_cast<Dim>(rng.below(static_cast<std::uint32_t>(max_step)));
    h2 += dh2;
    h1 = std::max(h1 + dh1, h2) + (dh1 + dh2 == 0 ? 1 : 0);
    entries[i].shape.h2 = h2;
    entries[i].shape.h1 = h1;
  }
  return LList::from_chain_unchecked(std::move(entries));
}

/// All k-subsets of 0..n-1 that keep 0 and n-1 (the selection search space).
inline void for_each_endpoint_subset(std::size_t n, std::size_t k,
                                     const std::function<void(const std::vector<std::size_t>&)>&
                                         visit) {
  std::vector<std::size_t> subset(k);
  subset.front() = 0;
  subset.back() = n - 1;
  // Choose k-2 interior positions out of n-2.
  std::vector<std::size_t> interior(k - 2);
  const std::function<void(std::size_t, std::size_t)> rec = [&](std::size_t start,
                                                                std::size_t depth) {
    if (depth == interior.size()) {
      for (std::size_t i = 0; i < interior.size(); ++i) subset[i + 1] = interior[i];
      visit(subset);
      return;
    }
    for (std::size_t v = start; v + (interior.size() - depth) <= n - 1; ++v) {
      interior[depth] = v;
      rec(v + 1, depth + 1);
    }
  };
  if (k >= 2) rec(1, 0);
}

/// Brute-force ERROR(L, L') per the definitions (min distance over the
/// whole kept set, no Lemma 3 shortcut).
inline Weight brute_force_l_error(const std::vector<LImpl>& chain,
                                  const std::vector<std::size_t>& kept, LpMetric metric) {
  Weight total = 0;
  for (std::size_t q = 0; q < chain.size(); ++q) {
    if (std::find(kept.begin(), kept.end(), q) != kept.end()) continue;
    Weight best = kInfiniteWeight;
    for (const std::size_t j : kept) best = std::min(best, l_dist(chain[q], chain[j], metric));
    total += best;
  }
  return total;
}

/// Brute force over all module assignments of a small floorplan tree,
/// evaluating the geometry directly: slices add/max, wheels use the
/// minimal pinwheel envelope formula (see optimize/combine.h).
inline Area brute_force_tree_area(const FloorplanTree& tree) {
  std::vector<std::size_t> pick(tree.module_count(), 0);
  Area best = std::numeric_limits<Area>::max();

  const std::function<RectImpl(const FloorplanNode&)> shape_of =
      [&](const FloorplanNode& node) -> RectImpl {
    switch (node.kind) {
      case NodeKind::Leaf:
        return tree.module(node.module_id).impls[pick[node.module_id]];
      case NodeKind::Slice: {
        Dim w = 0, h = 0;
        for (const auto& ch : node.children) {
          const RectImpl c = shape_of(*ch);
          if (node.dir == SliceDir::Vertical) {
            w += c.w;
            h = std::max(h, c.h);
          } else {
            w = std::max(w, c.w);
            h += c.h;
          }
        }
        return {w, h};
      }
      case NodeKind::Wheel: {
        const RectImpl d = shape_of(node.child(WheelPos::Bottom));
        const RectImpl a = shape_of(node.child(WheelPos::Left));
        const RectImpl e = shape_of(node.child(WheelPos::Center));
        const RectImpl c = shape_of(node.child(WheelPos::Right));
        const RectImpl b = shape_of(node.child(WheelPos::Top));
        const Dim x2 = std::max(d.w, a.w + e.w);
        const Dim y2 = std::max(c.h, d.h + e.h);
        return {std::max(x2 + c.w, a.w + b.w), std::max(y2 + b.h, d.h + a.h)};
      }
    }
    return {0, 0};
  };

  const std::function<void(std::size_t)> rec = [&](std::size_t m) {
    if (m == tree.module_count()) {
      best = std::min(best, shape_of(tree.root()).area());
      return;
    }
    for (std::size_t i = 0; i < tree.module(m).impls.size(); ++i) {
      pick[m] = i;
      rec(m + 1);
    }
  };
  rec(0);
  return best;
}

/// Every OptimizerStats field but `seconds`, doubles in hexfloat, so that
/// equal strings mean bit-equal stats.
inline std::string serialize_stats(const OptimizerStats& st) {
  std::ostringstream s;
  s << std::hexfloat;
  s << "peak_stored=" << st.peak_stored << " final_stored=" << st.final_stored
    << " peak_transient=" << st.peak_transient << " peak_live=" << st.peak_live
    << " generated=" << st.total_generated << " nodes=" << st.nodes_evaluated
    << " rsel=" << st.r_selection_calls << '/' << st.r_selected_away << '/'
    << st.r_selection_error << " lsel=" << st.l_selection_calls << '/'
    << st.l_selected_away << '/' << st.l_selection_error << " cspp=" << st.cspp_calls << '/'
    << st.cspp_monge_calls << " heur=" << st.l_heuristic_prereductions
    << " maxlists=" << st.max_rlist_len << '/' << st.max_llist_len;
  return s.str();
}

}  // namespace fpopt::test
