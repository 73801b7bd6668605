// Algorithm R_Selection (Section 4.2 of the paper).
//
// Optimally select k of the n implementations of an irreducible R-list so
// that the bounded area between the original staircase and the reduced one
// (ERROR(R, R'), Eq. (2)) is minimal. Reduces to the constrained shortest
// path problem on the complete interval DAG whose edge (r_i, r_j) weighs
// error(r_i, r_j) (Lemma 1); both endpoints r_1 and r_n are always kept.
#pragma once

#include <cstddef>
#include <vector>

#include "geometry/types.h"
#include "shape/r_list.h"

namespace fpopt {

/// Outcome of a selection: the kept positions (strictly increasing,
/// always including 0 and n-1 when n >= 2) and the total error paid.
struct SelectionResult {
  std::vector<std::size_t> kept;
  Weight error = 0;
};

/// DP evaluator choice. Auto picks the divide-and-conquer Monge evaluator
/// for the (provably Monge) staircase cost; Generic is the paper's literal
/// O(k n^2) dynamic program, kept as the reference implementation.
enum class SelectionDp { Auto, Generic, Monge };

/// Optimal k-subset of `list`. If k >= list.size() (or k == 0, meaning "no
/// limit"), everything is kept with zero error. Requires k >= 2 when a real
/// reduction happens (the two staircase endpoints must survive).
[[nodiscard]] SelectionResult r_selection(const RList& list, std::size_t k,
                                          SelectionDp dp = SelectionDp::Auto);

/// Dual problem: the smallest subset whose optimal selection error does
/// not exceed `max_error` (>= 0). Binary-searches k using the fact that
/// the optimal error is non-increasing in k; k == n always qualifies.
[[nodiscard]] SelectionResult r_selection_for_error(const RList& list, Weight max_error,
                                                    SelectionDp dp = SelectionDp::Auto);

}  // namespace fpopt
