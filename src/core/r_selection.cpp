#include "core/r_selection.h"

#include <cassert>
#include <numeric>

#include "core/interval_cspp.h"
#include "core/r_error.h"

#if defined(FPOPT_VALIDATE)
#include "check/check_certificate.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

namespace fpopt {

SelectionResult r_selection(const RList& list, std::size_t k, SelectionDp dp) {
  const std::size_t n = list.size();
  if (k == 0 || k >= n) {
    SelectionResult all;
    all.kept.resize(n);
    std::iota(all.kept.begin(), all.kept.end(), std::size_t{0});
    return all;
  }
  assert(k >= 2 && "a reduced staircase must keep both endpoints");

  // The oracle itself is the DP weight: O(1) closed-form queries.
  const RErrorOracle oracle(list.impls());

  const IntervalCsppResult path =
      (dp == SelectionDp::Generic)
          ? interval_constrained_shortest_path(n, k, oracle)
          : interval_constrained_shortest_path_monge(n, k, oracle);
  const SelectionResult result{path.indices, path.weight};
#if defined(FPOPT_VALIDATE)
  enforce(check_selection_certificate(list, result, k), "r_selection");
#endif
  return result;
}

SelectionResult r_selection_for_error(const RList& list, Weight max_error, SelectionDp dp) {
  assert(max_error >= 0);
  const std::size_t n = list.size();
  if (n <= 2) return r_selection(list, n, dp);

  // Smallest k in [2, n] with optimal_error(k) <= max_error; the optimal
  // error is non-increasing in k, so plain binary search applies.
  std::size_t lo = 2, hi = n;  // error(n) == 0 <= max_error always holds
  SelectionResult best = r_selection(list, n, dp);
  while (lo < hi) {
    const std::size_t mid = lo + (hi - lo) / 2;
    SelectionResult cand = r_selection(list, mid, dp);
    if (cand.error <= max_error) {
      best = std::move(cand);
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  // The minimal k may never have been evaluated (e.g. when the search
  // narrowed from the failing side); make sure the result matches it.
  if (best.kept.size() != lo) best = r_selection(list, lo, dp);
  return best;
}

}  // namespace fpopt
