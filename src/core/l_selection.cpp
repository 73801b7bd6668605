#include "core/l_selection.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <queue>

#include "core/interval_cspp.h"
#include "core/r_error.h"  // triangular_index
#include "telemetry/trace.h"

#if defined(FPOPT_VALIDATE)
#include "check/check_certificate.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

namespace fpopt {
namespace {

SelectionResult keep_everything(std::size_t n) {
  SelectionResult all;
  all.kept.resize(n);
  std::iota(all.kept.begin(), all.kept.end(), std::size_t{0});
  return all;
}

/// ERROR(L, L') of a concrete kept set, evaluated against the *original*
/// chain by Lemma 3 (each discarded element pays its distance to the
/// nearer kept neighbor). Used to report the true cost after the
/// heuristic + optimal two-stage reduction.
Weight l_subset_error(std::span<const LImpl> chain, std::span<const std::size_t> kept,
                      LpMetric metric) {
  assert(kept.size() >= 2 && kept.front() == 0 && kept.back() == chain.size() - 1);
  Weight total = 0;
  for (std::size_t seg = 0; seg + 1 < kept.size(); ++seg) {
    const LImpl& left = chain[kept[seg]];
    const LImpl& right = chain[kept[seg + 1]];
    for (std::size_t q = kept[seg] + 1; q < kept[seg + 1]; ++q) {
      total += std::min(l_dist(left, chain[q], metric), l_dist(chain[q], right, metric));
    }
  }
  return total;
}

}  // namespace

SelectionResult l_selection(const LList& chain, std::size_t k, const LSelectionOptions& opts) {
  const std::size_t n = chain.size();
  if (k == 0 || k >= n) return keep_everything(n);
  assert(k >= 2 && "a reduced L-list must keep both chain endpoints");

  const std::vector<LImpl> shapes = chain.shapes();

  SelectionResult result;
  if (opts.metric == LpMetric::L1) {
    // Passed as the weight directly: O(log n) queries from prefix sums
    // (see l_error.h).
    const L1ErrorOracle oracle(shapes);
    const IntervalCsppResult path =
        (opts.dp == SelectionDp::Generic)
            ? interval_constrained_shortest_path(n, k, oracle)
            : interval_constrained_shortest_path_monge(n, k, oracle);
    result = {path.indices, path.weight};
  } else {
    // Non-L1 metrics: the paper's table-based path (Compute_L_Error is the
    // O(n^3) dominant cost of Theorem 3). Monge is only established for L1,
    // so Auto falls back to the literal DP here.
    const std::vector<Weight> table = compute_l_error_table(shapes, opts.metric);
    const auto weight = [&table, n](std::size_t i, std::size_t j) {
      return table[triangular_index(n, i, j)];
    };
    const IntervalCsppResult path = interval_constrained_shortest_path(n, k, weight);
    result = {path.indices, path.weight};
  }
#if defined(FPOPT_VALIDATE)
  enforce(check_l_selection_certificate(chain, result, k, opts.metric), "l_selection");
#endif
  return result;
}

std::vector<std::size_t> greedy_drop_indices(const LList& chain, std::size_t target,
                                             LpMetric metric) {
  assert(target >= 2);
  const std::size_t n = chain.size();
  if (target >= n) {
    std::vector<std::size_t> all(n);
    std::iota(all.begin(), all.end(), std::size_t{0});
    return all;
  }
  const std::vector<LImpl> shapes = chain.shapes();

  // Doubly linked list over surviving positions + lazy min-heap of
  // (cost, position, version); stale heap entries are skipped.
  std::vector<std::size_t> prev(n), next(n);
  std::vector<std::uint32_t> version(n, 0);
  std::vector<bool> alive(n, true);
  for (std::size_t i = 0; i < n; ++i) {
    prev[i] = i == 0 ? n : i - 1;
    next[i] = i + 1;
  }

  struct HeapEntry {
    Weight cost;
    std::size_t pos;
    std::uint32_t version;
    bool operator>(const HeapEntry& o) const { return cost > o.cost; }
  };
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap;
  const auto cost_of = [&](std::size_t i) {
    return std::min(l_dist(shapes[prev[i]], shapes[i], metric),
                    l_dist(shapes[i], shapes[next[i]], metric));
  };
  for (std::size_t i = 1; i + 1 < n; ++i) heap.push({cost_of(i), i, 0});

  std::size_t survivors = n;
  while (survivors > target && !heap.empty()) {
    const HeapEntry top = heap.top();
    heap.pop();
    if (!alive[top.pos] || top.version != version[top.pos]) continue;
    // Drop it; its neighbors' costs change.
    alive[top.pos] = false;
    --survivors;
    const std::size_t l = prev[top.pos], r = next[top.pos];
    next[l] = r;
    prev[r] = l;
    for (const std::size_t nb : {l, r}) {
      if (nb == 0 || nb == n - 1) continue;  // endpoints never dropped
      heap.push({cost_of(nb), nb, ++version[nb]});
    }
  }

  std::vector<std::size_t> kept;
  kept.reserve(target);
  for (std::size_t i = 0; i < n; ++i) {
    if (alive[i]) kept.push_back(i);
  }
  return kept;
}

std::vector<std::size_t> heuristic_subsample_indices(std::size_t n, std::size_t target) {
  assert(target >= 2);
  std::vector<std::size_t> idx;
  if (target >= n) {
    idx.resize(n);
    std::iota(idx.begin(), idx.end(), std::size_t{0});
    return idx;
  }
  idx.reserve(target);
  for (std::size_t i = 0; i < target; ++i) {
    // Evenly spaced floor positions; strictly increasing because
    // (n-1)/(target-1) >= 1, and i == target-1 lands exactly on n-1.
    idx.push_back(i * (n - 1) / (target - 1));
  }
  return idx;
}

namespace {

/// reduce_l_list, counting the selector runs and S-cap pre-passes it makes
/// into `counts`.
Weight reduce_chain(LList& chain, std::size_t k, const LSelectionOptions& opts,
                    LReductionReport& counts) {
  const std::size_t n = chain.size();
  if (k == 0 || n <= k) return 0;

  ++counts.chains_reduced;
  ++counts.cspp_calls;
  if (opts.metric == LpMetric::L1 && opts.dp != SelectionDp::Generic) ++counts.cspp_monge_calls;
  const LList original = chain;
  std::vector<std::size_t> survivors;

  if (opts.heuristic_cap > 0 && n > opts.heuristic_cap &&
      opts.heuristic_cap > std::max<std::size_t>(k, 2)) {
    // Two-stage reduction: cheap heuristic to S, then optimal to k.
    ++counts.heuristic_prereductions;
    const std::vector<std::size_t> coarse =
        opts.heuristic == LHeuristic::GreedyDrop
            ? greedy_drop_indices(chain, opts.heuristic_cap, opts.metric)
            : heuristic_subsample_indices(n, opts.heuristic_cap);
    const LList coarse_chain = chain.subset(coarse);
    const SelectionResult sel = l_selection(coarse_chain, k, opts);
    survivors.reserve(sel.kept.size());
    for (std::size_t pos : sel.kept) survivors.push_back(coarse[pos]);
  } else {
    survivors = l_selection(chain, k, opts).kept;
  }

  chain = original.subset(survivors);
  const Weight error = l_subset_error(original.shapes(), survivors, opts.metric);
#if defined(FPOPT_VALIDATE)
  // The two-stage (heuristic + optimal) reduction still has to hand back a
  // well-formed selection whose reported cost matches Lemma 3 against the
  // *original* chain.
  enforce(check_l_selection_certificate(original, SelectionResult{survivors, error}, k,
                                        opts.metric, "reduce_l_list"),
          "reduce_l_list");
#endif
  return error;
}

}  // namespace

Weight reduce_l_list(LList& chain, std::size_t k, const LSelectionOptions& opts) {
  LReductionReport ignored;
  return reduce_chain(chain, k, opts, ignored);
}

LReductionReport reduce_l_set(LListSet& set, std::size_t k2, double theta,
                              const LSelectionOptions& opts) {
  // id = set size before reduction (deterministic); untriggered calls
  // still record a (cheap) span so trace diffs see every invocation.
  telemetry::TraceSpan span(telemetry::TraceCat::kKernel, "reduce_l_set", set.total_size(),
                            k2);
  LReductionReport report;
  report.before = set.total_size();
  report.after = set.total_size();

  const std::size_t n_total = set.total_size();
  if (k2 == 0 || n_total <= k2) return report;
  // Section 5 trigger: only reduce when K2/X < theta.
  if (!(static_cast<double>(k2) / static_cast<double>(n_total) < theta)) return report;

  report.triggered = true;
  std::vector<LList> reduced;
  reduced.reserve(set.list_count());
  for (const LList& list : set.lists()) {
    LList copy = list;
    const std::size_t budget =
        std::max<std::size_t>(2, k2 * list.size() / n_total);  // floor(K2 |L| / N)
    report.total_error += reduce_chain(copy, budget, opts, report);
    reduced.push_back(std::move(copy));
  }
  set.replace_lists(std::move(reduced));
  report.after = set.total_size();
  return report;
}

}  // namespace fpopt
