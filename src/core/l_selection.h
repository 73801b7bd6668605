// Algorithm L_Selection (Section 4.3 of the paper) plus the Section 5
// engineering around it.
//
// Optimally selects k of the n implementations of one irreducible L-list,
// minimizing ERROR(L, L') = sum of each discarded implementation's
// distance to the nearest kept one (Eq. (3)), by reduction to the
// constrained shortest path problem. The paper's complexity is O(n^3),
// dominated by Compute_L_Error; with the L1 metric we additionally provide
// an O(k n log n) path through the line-isometry oracle (see l_error.h).
//
// Section 5 speed-ups, applied per list by reduce_l_list / reduce_l_set:
//  * the heuristic pre-reduction: when a list is longer than S, first
//    uniformly subsample it down to S (keeping both endpoints), then run
//    the optimal selector;
//  * the trigger: reduce an L-block only when K2/X < theta, X the block's
//    current implementation count;
//  * the per-list budget floor(K2 * |L| / N) for a block whose N
//    implementations are spread over several lists.
#pragma once

#include <cstddef>
#include <vector>

#include "core/l_error.h"
#include "core/r_selection.h"  // SelectionResult, SelectionDp
#include "shape/l_list.h"
#include "shape/l_list_set.h"

namespace fpopt {

/// Which cheap pre-reduction implements the paper's unspecified
/// "heuristic version of L_Selection" (Section 5).
enum class LHeuristic {
  UniformSubsample,  ///< evenly spaced positions, endpoints kept
  GreedyDrop,        ///< repeatedly drop the interior element whose
                     ///< Lemma-3 cost against its current neighbors is
                     ///< smallest (heap + doubly linked list)
};

struct LSelectionOptions {
  LpMetric metric = LpMetric::L1;
  /// Auto: Monge DP with the L1 oracle when metric == L1 (cross-checked
  /// against Generic in the tests), otherwise the literal table-based DP.
  SelectionDp dp = SelectionDp::Auto;
  /// Section 5's S: pre-reduce any list longer than this with the cheap
  /// heuristic before running the optimal selector. 0 disables.
  std::size_t heuristic_cap = 0;
  LHeuristic heuristic = LHeuristic::UniformSubsample;
};

/// Optimal k-subset of one irreducible L-list (indices into `chain`).
/// k == 0 or k >= size keeps everything. Endpoints always survive.
[[nodiscard]] SelectionResult l_selection(const LList& chain, std::size_t k,
                                          const LSelectionOptions& opts = {});

/// The unspecified "heuristic version of L_Selection" used for the S cap:
/// evenly spaced positions of 0..n-1 including both endpoints.
[[nodiscard]] std::vector<std::size_t> heuristic_subsample_indices(std::size_t n,
                                                                   std::size_t target);

/// Greedy alternative: repeatedly drop the interior element with the
/// smallest Lemma-3 cost against its surviving neighbors. Returns the
/// kept indices (strictly increasing, endpoints included). O(n log n).
[[nodiscard]] std::vector<std::size_t> greedy_drop_indices(const LList& chain,
                                                           std::size_t target, LpMetric metric);

/// Reduce one chain to `k` entries (heuristic cap first if configured,
/// then optimal selection). Returns the total selection error paid.
[[nodiscard]] Weight reduce_l_list(LList& chain, std::size_t k, const LSelectionOptions& opts);

struct LReductionReport {
  bool triggered = false;      ///< false when X <= K2/theta (Section 5 trigger)
  std::size_t before = 0;      ///< implementations before reduction
  std::size_t after = 0;       ///< implementations after reduction
  Weight total_error = 0;      ///< sum of per-list selection errors
  std::size_t chains_reduced = 0;  ///< lists the optimal selector ran on
  std::size_t cspp_calls = 0;      ///< interval-CSPP invocations
  std::size_t cspp_monge_calls = 0;  ///< of those, through the Monge DP
  std::size_t heuristic_prereductions = 0;  ///< Section-5 S-cap pre-passes
};

/// Reduce an L-block's whole implementation store from N = set.total_size()
/// to (about) K2, splitting the budget across lists in proportion to their
/// sizes: each list of length |L| gets max(2, floor(K2 |L| / N)).
/// theta in (0, 1]: reduction only happens when K2 < theta * N. The
/// per-list errors are summed in chain order.
[[nodiscard]] LReductionReport reduce_l_set(LListSet& set, std::size_t k2, double theta,
                                            const LSelectionOptions& opts = {});

}  // namespace fpopt
