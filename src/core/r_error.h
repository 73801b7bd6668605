// error(r_i, r_j) for rectangular blocks (Section 4.2 of the paper).
//
// For an irreducible R-list {r_1..r_n}, error(r_i, r_j) is the staircase
// area lost when every corner strictly between r_i and r_j is discarded.
// Two evaluators:
//  * compute_r_error_table: the paper's Algorithm Compute_R_Error, the
//    O(n^2) incremental recurrence
//        error(i, i+1)   = 0
//        error(i, i+l)   = error(i, i+l-1) + (w_i - w_{i+l-1})(h_{i+l} - h_{i+l-1})
//  * RErrorOracle: an O(n)-preprocessing, O(1)-per-query closed form
//        error(i, j) = h_j (w_i - w_j) - (G(j) - G(i)),
//        G(m) = sum_{q<m} (w_q - w_{q+1}) h_{q+1},
//    obtained by splitting the vertical-strip sum; this is what lets
//    R_Selection run without the quadratic table on large lists.
//
// The oracle cost is Monge: for i <= i' <= j <= j',
//   [error(i,j') - error(i,j)] - [error(i',j') - error(i',j)]
//     = (w_i - w_{i'})(h_{j'} - h_j) >= 0,
// which justifies the divide-and-conquer DP in interval_cspp.h.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geometry/rect_impl.h"
#include "geometry/types.h"

namespace fpopt {

/// Flat upper-triangular table: entry (i, j), i < j, lives at
/// triangular_index(n, i, j).
[[nodiscard]] constexpr std::size_t triangular_index(std::size_t n, std::size_t i,
                                                     std::size_t j) {
  return i * n - i * (i + 1) / 2 + (j - i - 1);
}

/// Algorithm Compute_R_Error: all error(r_i, r_j), O(n^2) time and space.
/// `list` must be an irreducible R-list.
[[nodiscard]] std::vector<Area> compute_r_error_table(std::span<const RectImpl> list);

/// Constant-time error(i, j) queries backed by one prefix-sum pass.
class RErrorOracle {
 public:
  explicit RErrorOracle(std::span<const RectImpl> list);

  [[nodiscard]] Area error(std::size_t i, std::size_t j) const {
    return heights_[j] * (widths_[i] - widths_[j]) - (prefix_[j] - prefix_[i]);
  }

  /// DP-weight view of error(): what the selectors hand to interval_cspp.
  [[nodiscard]] Weight operator()(std::size_t i, std::size_t j) const {
    return static_cast<Weight>(error(i, j));
  }

  [[nodiscard]] std::size_t size() const { return widths_.size(); }

 private:
  std::vector<Dim> widths_;
  std::vector<Dim> heights_;
  std::vector<Area> prefix_;  // G(m)
};

}  // namespace fpopt
