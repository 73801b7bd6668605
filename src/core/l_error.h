// error(l_i, l_j) for L-shaped blocks (Section 4.3 of the paper).
//
// Implementations in one irreducible L-list are points of R^4 whose
// pairwise distance measures shape difference; w2 is constant within a
// list so only (w1, h1, h2) contribute. The cost of discarding l_q between
// two kept neighbors l_i < l_q < l_j is its distance to the nearer one
// (Lemma 3), and
//     error(l_i, l_j) = sum_{i<q<j} min(dist(l_i,l_q), dist(l_q,l_j)).
//
// Footnote 2 of the paper allows any L_p metric; we provide L1 (the
// paper's Manhattan default), L2 and Linf.
//
// Evaluators:
//  * compute_l_error_table: Algorithm Compute_L_Error, the literal O(n^3)
//    triple loop, any metric.
//  * L1ErrorOracle: for the L1 metric the chain is isometric to points on
//    a line: along an irreducible L-list w1 decreases while h1, h2 grow,
//    so for i < j
//        dist_1(l_i, l_j) = (w1_i - w1_j) + (h1_j - h1_i) + (h2_j - h2_i)
//                         = s_j - s_i,      s_q := -w1_q + h1_q + h2_q,
//    with s non-decreasing. error(i, j) then splits at the midpoint
//    (s_i + s_j)/2 and evaluates from prefix sums in O(log n) per query.
//    The resulting cost is the classic concave "nearest selected point on
//    a line" cost, which satisfies the quadrangle inequality (verified by
//    a randomized property test), enabling the Monge DP.
#pragma once

#include <cmath>
#include <cstddef>
#include <span>
#include <vector>

#include "geometry/l_impl.h"
#include "geometry/types.h"

namespace fpopt {

/// Which L_p metric measures shape difference (paper footnote 2).
enum class LpMetric { L1, L2, LInf };

/// Distance between two implementations of one block under `metric`.
[[nodiscard]] Weight l_dist(const LImpl& a, const LImpl& b, LpMetric metric);

/// Algorithm Compute_L_Error: all error(l_i, l_j), i < j, in a flat
/// triangular table (see triangular_index in r_error.h). O(n^3) time.
/// `chain` must be an irreducible L-list. Each entry sums its terms in
/// q-ascending order.
[[nodiscard]] std::vector<Weight> compute_l_error_table(std::span<const LImpl> chain,
                                                        LpMetric metric);

/// O(log n)-per-query error(i, j) evaluation, L1 metric only.
class L1ErrorOracle {
 public:
  explicit L1ErrorOracle(std::span<const LImpl> chain);

  [[nodiscard]] Weight error(std::size_t i, std::size_t j) const;

  /// DP-weight view of error(): what l_selection hands to interval_cspp.
  [[nodiscard]] Weight operator()(std::size_t i, std::size_t j) const { return error(i, j); }

  [[nodiscard]] std::size_t size() const { return s_.size(); }

 private:
  std::vector<Area> s_;       // line coordinate of each chain element
  std::vector<Area> prefix_;  // prefix_[q] = s_0 + ... + s_{q-1}
};

}  // namespace fpopt
