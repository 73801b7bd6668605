// Irreducible R-lists (Definitions 4 and 5 of the paper).
//
// An irreducible R-list is the canonical store of all non-redundant
// implementations of a rectangular block: widths strictly decreasing,
// heights strictly increasing, no implementation dominating another.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "geometry/rect_impl.h"
#include "geometry/staircase.h"
#include "geometry/types.h"

namespace fpopt {

/// Prune a candidate set down to its Pareto-minimal (non-redundant) subset.
///
/// Returns the indices of the kept candidates, ordered by width strictly
/// decreasing (the R-list order). Of exact duplicates (equal w and h) the
/// one with the smallest index survives, so the result does not depend on
/// the sort algorithm. The index form exists so callers (the optimizer) can
/// subset parallel provenance arrays with the same result.
[[nodiscard]] std::vector<std::size_t> prune_rect_candidates(std::span<const RectImpl> cands);

/// An irreducible R-list. Invariant: is_irreducible_r_list(impls()) holds.
class RList {
 public:
  RList() = default;

  /// Build from an arbitrary candidate multiset by dominance pruning.
  [[nodiscard]] static RList from_candidates(std::vector<RectImpl> cands);

  /// Adopt a vector that is already an irreducible R-list (checked by
  /// assertion in debug builds).
  [[nodiscard]] static RList from_sorted_unchecked(std::vector<RectImpl> impls);

  [[nodiscard]] std::size_t size() const { return impls_.size(); }
  [[nodiscard]] bool empty() const { return impls_.empty(); }
  [[nodiscard]] const RectImpl& operator[](std::size_t i) const { return impls_[i]; }
  [[nodiscard]] std::span<const RectImpl> impls() const { return impls_; }

  [[nodiscard]] auto begin() const { return impls_.begin(); }
  [[nodiscard]] auto end() const { return impls_.end(); }

  /// Index of the minimum-area implementation (the optimizer's root pick).
  /// Precondition: non-empty.
  [[nodiscard]] std::size_t min_area_index() const;

  /// Smallest feasible height given a width budget, or std::nullopt if no
  /// implementation fits in `w`.
  [[nodiscard]] std::optional<Dim> min_height_at(Dim w) const {
    return staircase_min_height(impls_, w);
  }

  /// New R-list holding impls()[i] for each i in `kept` (strictly
  /// increasing indices). Any such subset of an irreducible list is itself
  /// irreducible.
  [[nodiscard]] RList subset(std::span<const std::size_t> kept) const;

  friend bool operator==(const RList&, const RList&) = default;

 private:
  std::vector<RectImpl> impls_;
};

}  // namespace fpopt
