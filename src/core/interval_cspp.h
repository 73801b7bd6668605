// Constrained shortest path specialized to the complete interval DAG.
//
// Both selection algorithms build the same graph shape: vertices are the
// list positions 0..n-1 and there is an edge (i, j) for every i < j, with
// weight error(i, j). The constrained shortest path from 0 to n-1 with
// exactly k vertices is then the optimal k-subset that keeps both
// endpoints. Specializing the DP to this DAG avoids materializing the
// O(n^2) edges: weights are queried through a callable.
//
// Two evaluators are provided:
//  * interval_constrained_shortest_path: the literal layered DP,
//    O(k n^2) weight queries (the paper's complexity).
//  * interval_constrained_shortest_path_monge: divide-and-conquer row
//    minima, O(k n log n) queries, *exact* whenever the weight satisfies
//    the quadrangle inequality
//        w(i,j) + w(i',j') <= w(i,j') + w(i',j)   for i <= i' <= j <= j'.
//    The staircase area cost of R_Selection is Monge (see r_error.h), and
//    so is the L1 chain cost of L_Selection; tests cross-check both
//    evaluators on random inputs.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "geometry/types.h"
#include "telemetry/trace.h"

namespace fpopt {

struct IntervalCsppResult {
  std::vector<std::size_t> indices;  ///< k selected positions, front()==0, back()==n-1
  Weight weight = 0;
};

namespace detail {

/// Best predecessor of j among i in [i_lo, i_end] (inclusive, non-empty):
/// minimizes prev[i] + weight(i, j), first minimum winning, infinite
/// prev[i] never winning.
template <typename WeightFn>
std::pair<Weight, std::size_t> best_predecessor(const std::vector<Weight>& prev,
                                                WeightFn& weight, std::size_t j,
                                                std::size_t i_lo, std::size_t i_end) {
  assert(i_lo <= i_end && i_end < j);
  Weight best = kInfiniteWeight;
  std::size_t best_i = i_lo;
  for (std::size_t i = i_lo; i <= i_end; ++i) {
    if (prev[i] == kInfiniteWeight) continue;
    const Weight cand = prev[i] + static_cast<Weight>(weight(i, j));
    if (cand < best) {
      best = cand;
      best_i = i;
    }
  }
  return {best, best_i};
}

/// Shared path-retrieval: parent[l][j] = predecessor of j on the best
/// l-vertex path ending at j.
inline IntervalCsppResult retrieve_interval_path(
    const std::vector<std::vector<std::uint32_t>>& parent, std::size_t n, std::size_t k,
    Weight total) {
  IntervalCsppResult out;
  out.weight = total;
  out.indices.resize(k);
  std::size_t j = n - 1;
  for (std::size_t l = k; l >= 2; --l) {
    out.indices[l - 1] = j;
    j = parent[l][j];
  }
  assert(j == 0);
  out.indices[0] = 0;
  return out;
}

}  // namespace detail

/// Literal layered DP over the complete interval DAG.
/// `weight(i, j)` must be valid for all 0 <= i < j <= n-1 and non-negative.
/// Preconditions: n >= 2, 2 <= k <= n.
template <typename WeightFn>
[[nodiscard]] IntervalCsppResult interval_constrained_shortest_path(std::size_t n, std::size_t k,
                                                                    WeightFn&& weight) {
  assert(n >= 2 && k >= 2 && k <= n);
  // Kernel spans are identified by problem size, a pure function of the
  // input, never by the node that called them.
  telemetry::TraceSpan span(telemetry::TraceCat::kKernel, "cspp", n, k);

  std::vector<Weight> prev(n, kInfiniteWeight);
  std::vector<Weight> cur(n, kInfiniteWeight);
  std::vector<std::vector<std::uint32_t>> parent(k + 1, std::vector<std::uint32_t>(n, 0));

  prev[0] = 0;  // layer 1: only the first element is reachable
  for (std::size_t l = 2; l <= k; ++l) {
    // With exactly l vertices used and k - l still to come, position j must
    // satisfy j >= l-1 and j <= n-1-(k-l).
    const std::size_t j_lo = l - 1;
    const std::size_t j_hi = n - 1 - (k - l);
    std::fill(cur.begin(), cur.end(), kInfiniteWeight);
    for (std::size_t j = j_lo; j <= j_hi; ++j) {
      const auto [best, best_i] = detail::best_predecessor(prev, weight, j, l - 2, j - 1);
      cur[j] = best;
      parent[l][j] = static_cast<std::uint32_t>(best_i);
    }
    std::swap(prev, cur);
  }

  assert(prev[n - 1] != kInfiniteWeight);
  return detail::retrieve_interval_path(parent, n, k, prev[n - 1]);
}

namespace detail {

/// Divide-and-conquer row-minima for one DP layer: for each j in
/// [j_lo, j_hi] find argmin_{i in [i_lo, min(i_hi, j-1)]} prev[i] + w(i,j),
/// relying on argmin monotonicity (valid for Monge weights).
template <typename WeightFn>
void monge_layer(const std::vector<Weight>& prev, std::vector<Weight>& cur,
                 std::vector<std::uint32_t>& parent_row, WeightFn& weight, std::size_t j_lo,
                 std::size_t j_hi, std::size_t i_lo, std::size_t i_hi) {
  if (j_lo > j_hi) return;
  const std::size_t j_mid = j_lo + (j_hi - j_lo) / 2;

  const auto [best, best_i] =
      best_predecessor(prev, weight, j_mid, i_lo, std::min(i_hi, j_mid - 1));
  cur[j_mid] = best;
  parent_row[j_mid] = static_cast<std::uint32_t>(best_i);

  if (j_mid > j_lo) monge_layer(prev, cur, parent_row, weight, j_lo, j_mid - 1, i_lo, best_i);
  if (j_mid < j_hi) monge_layer(prev, cur, parent_row, weight, j_mid + 1, j_hi, best_i, i_hi);
}

}  // namespace detail

/// Same contract as interval_constrained_shortest_path, but O(k n log n)
/// weight queries. Exact only for quadrangle-inequality weights.
template <typename WeightFn>
[[nodiscard]] IntervalCsppResult interval_constrained_shortest_path_monge(std::size_t n,
                                                                          std::size_t k,
                                                                          WeightFn&& weight) {
  assert(n >= 2 && k >= 2 && k <= n);
  telemetry::TraceSpan span(telemetry::TraceCat::kKernel, "cspp_monge", n, k);

  std::vector<Weight> prev(n, kInfiniteWeight);
  std::vector<Weight> cur(n, kInfiniteWeight);
  std::vector<std::vector<std::uint32_t>> parent(k + 1, std::vector<std::uint32_t>(n, 0));

  prev[0] = 0;
  for (std::size_t l = 2; l <= k; ++l) {
    const std::size_t j_lo = l - 1;
    const std::size_t j_hi = n - 1 - (k - l);
    // Predecessors live in [l-2, j_hi - 1]; prev[] is finite on that whole
    // range in a complete interval DAG, so no infinity handling is needed
    // inside the divide-and-conquer.
    std::fill(cur.begin(), cur.end(), kInfiniteWeight);
    detail::monge_layer(prev, cur, parent[l], weight, j_lo, j_hi, l - 2, j_hi - 1);
    std::swap(prev, cur);
  }

  assert(prev[n - 1] != kInfiniteWeight);
  return detail::retrieve_interval_path(parent, n, k, prev[n - 1]);
}

}  // namespace fpopt
