#include "optimize/combine.h"

#include <algorithm>
#include <cassert>

#include "telemetry/trace.h"

#if defined(FPOPT_VALIDATE)
#include "check/check_shapes.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

// Float-accumulation audit (docs/ALGORITHMS.md §11): every combine loop
// below is pure int64 arithmetic — min/max/+ over Dim — with no
// floating-point accumulation anywhere. The budget decisions are
// count-based: TransientScope::add once per candidate, in generation
// order.

namespace fpopt {
namespace {

/// Finalize one generation context: prune the pre-chain, convert surviving
/// temp ids (left-child references) into provenance records, assign global
/// entry ids, and append the chain to the result. Counts the chain as
/// stored right away — partially built L sets are real memory and must be
/// able to trip the budget mid-combine, exactly like [9] running out of
/// memory halfway through a node.
void emit_chain(std::vector<LEntry>& pre_chain, std::uint32_t right_idx, LCombineResult& out,
                BudgetTracker& budget, OptimizerStats& stats) {
  stats.total_generated += pre_chain.size();
  if (pre_chain.empty()) return;
  const LList pruned = LList::from_prechain(pre_chain);
#if defined(FPOPT_VALIDATE)
  // Catch from_prechain bugs right where the chain is born, before the
  // temp ids are rewritten into provenance records.
  enforce(check_l_list(pruned, "emit_chain"), "combine emit_chain");
#endif
  std::vector<LEntry> entries(pruned.begin(), pruned.end());
  for (LEntry& e : entries) {
    out.prov.push_back({e.id, right_idx});
    e.id = static_cast<std::uint32_t>(out.prov.size() - 1);
  }
  budget.add_stored(entries.size());
  out.set.add(LList::from_chain_unchecked(std::move(entries)));
  pre_chain.clear();
}

/// Eager dominance pruning of a growing L set. [9] keeps its working sets
/// non-redundant as it goes; doing the same bounds the memory of a combine
/// step by the frontier size instead of the cross-product size.
void maybe_compact_l(LCombineResult& out, LPruning pruning, std::size_t& compact_at,
                     BudgetTracker& budget) {
  if (pruning != LPruning::GlobalEager || out.set.total_size() <= compact_at) return;
  telemetry::TraceSpan span(telemetry::TraceCat::kKernel, "canonicalize", out.set.total_size(),
                            out.set.list_count());
  budget.sub_stored(out.set.canonicalize());
  compact_at = std::max<std::size_t>(4096, out.set.total_size() * 2);
}

/// Adopt an irreducible R-list and its parallel provenance as a combine
/// result, re-checking both under FPOPT_VALIDATE.
RCombineResult make_rect_result(std::vector<RectImpl> impls, std::vector<Prov> prov,
                                const char* where) {
  RCombineResult out;
  out.list = RList::from_sorted_unchecked(std::move(impls));
  out.prov = std::move(prov);
#if defined(FPOPT_VALIDATE)
  CheckResult post;
  if (out.prov.size() != out.list.size()) {
    post.add("combine/provenance", where, "provenance array no longer parallel to the pruned list");
  }
  enforce(post, where);
#else
  (void)where;
#endif
  return out;
}

RCombineResult finalize_rect(const std::vector<RectImpl>& cands, const std::vector<Prov>& prov) {
  const std::vector<std::size_t> kept = prune_rect_candidates(cands);
  std::vector<RectImpl> impls;
  std::vector<Prov> kept_prov;
  impls.reserve(kept.size());
  kept_prov.reserve(kept.size());
  for (std::size_t idx : kept) {
    impls.push_back(cands[idx]);
    kept_prov.push_back(prov[idx]);
  }
  return make_rect_result(std::move(impls), std::move(kept_prov), "combine finalize_rect");
}

/// Merge one candidate into a staircase (w strictly decreasing, h strictly
/// increasing) with parallel provenance. The candidate is dropped when an
/// entry has w <= and h <= its own, an exact duplicate included, so the
/// first arrival of a shape stays. Otherwise it goes in and evicts the
/// entries it dominates.
void merge_into_staircase(const RectImpl& c, const Prov& p, std::vector<RectImpl>& stair,
                          std::vector<Prov>& stair_prov) {
  // From `pos` on every entry has w <= c.w, and the one at `pos` has the
  // smallest h of them.
  const auto pos = std::partition_point(stair.begin(), stair.end(),
                                        [&](const RectImpl& s) { return s.w > c.w; });
  if (pos != stair.end() && pos->h <= c.h) return;
  // c dominates the entries before `pos` with h >= c.h, and the entry at
  // `pos` when its w equals c.w.
  const auto lo =
      std::partition_point(stair.begin(), pos, [&](const RectImpl& s) { return s.h < c.h; });
  const auto hi = pos != stair.end() && pos->w == c.w ? pos + 1 : pos;
  const auto prov_lo = stair_prov.begin() + (lo - stair.begin());
  stair_prov.insert(stair_prov.erase(prov_lo, prov_lo + (hi - lo)), p);
  stair.insert(stair.erase(lo, hi), c);
}

RectImpl slice_shape(const RectImpl& a, const RectImpl& b, bool horizontal) {
  return horizontal ? RectImpl{std::max(a.w, b.w), a.h + b.h}
                    : RectImpl{a.w + b.w, std::max(a.h, b.h)};
}

}  // namespace

RCombineResult combine_slice(const RList& a, const RList& b, bool horizontal,
                             BudgetTracker& budget, OptimizerStats& stats) {
  assert(!a.empty() && !b.empty());
  TransientScope transient(budget);
  std::vector<RectImpl> cands;
  std::vector<Prov> prov;
  cands.reserve(a.size() + b.size());
  prov.reserve(a.size() + b.size());

  const auto emit = [&](std::size_t i, std::size_t j) {
    cands.push_back(slice_shape(a[i], b[j], horizontal));
    prov.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
    transient.add(1);
  };

  if (!horizontal) {
    // Vertical slice: h = max(ha, hb). For each a[i], the best partner is
    // the largest j with b[j].h <= a[i].h (minimal width not exceeding the
    // height cap); symmetric for b[j]. Both sweeps are linear merges.
    for (std::size_t i = 0, j = 0; i < a.size(); ++i) {
      while (j + 1 < b.size() && b[j + 1].h <= a[i].h) ++j;
      if (b[j].h <= a[i].h) emit(i, j);
    }
    for (std::size_t j = 0, i = 0; j < b.size(); ++j) {
      while (i + 1 < a.size() && a[i + 1].h <= b[j].h) ++i;
      if (a[i].h <= b[j].h) emit(i, j);
    }
  } else {
    // Horizontal slice: w = max(wa, wb). For each a[i], the best partner
    // is the first j with b[j].w <= a[i].w (minimal height within the
    // width cap); symmetric for b[j]. Lists are width-descending.
    for (std::size_t i = 0, j = 0; i < a.size(); ++i) {
      while (j < b.size() && b[j].w > a[i].w) ++j;
      if (j < b.size()) emit(i, j);
    }
    for (std::size_t j = 0, i = 0; j < b.size(); ++j) {
      while (i < a.size() && a[i].w > b[j].w) ++i;
      if (i < a.size()) emit(i, j);
    }
  }

  stats.total_generated += cands.size();
  return finalize_rect(cands, prov);
}

RCombineResult combine_slice_naive(const RList& a, const RList& b, bool horizontal,
                                   BudgetTracker& budget, OptimizerStats& stats) {
  assert(!a.empty() && !b.empty());
  TransientScope transient(budget);
  std::vector<RectImpl> cands;
  std::vector<Prov> prov;
  cands.reserve(a.size() * b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    for (std::size_t j = 0; j < b.size(); ++j) {
      cands.push_back(slice_shape(a[i], b[j], horizontal));
      prov.push_back({static_cast<std::uint32_t>(i), static_cast<std::uint32_t>(j)});
      transient.add(1);
    }
  }
  stats.total_generated += cands.size();
  return finalize_rect(cands, prov);
}

LCombineResult combine_wheel_stack(const RList& d, const RList& a, LPruning pruning,
                                   BudgetTracker& budget, OptimizerStats& stats) {
  assert(!d.empty() && !a.empty());
  LCombineResult out;
  std::vector<LEntry> pre_chain;
  pre_chain.reserve(d.size());
  std::size_t compact_at = 4096;

  for (std::size_t j = 0; j < a.size(); ++j) {
    TransientScope transient(budget);
    for (std::size_t i = 0; i < d.size(); ++i) {
      pre_chain.push_back({{std::max(d[i].w, a[j].w), a[j].w, d[i].h + a[j].h, d[i].h},
                           static_cast<std::uint32_t>(i)});
      transient.add(1);
    }
    emit_chain(pre_chain, static_cast<std::uint32_t>(j), out, budget, stats);
    maybe_compact_l(out, pruning, compact_at, budget);
  }
  return out;
}

namespace {

/// Shared loop of op2/op3: apply `op(shape, rect)` to every (chain
/// element, rect impl) pair in (chain, j, i) order, one context per
/// (chain, rect impl), charging the budget once per candidate.
///
/// The chains of one input chain are added in j order, and that is where
/// most redundancy sits: a fill-notch entry (i, j) is redundant against
/// (i, j-1) once w2 + r_{j-1}.w <= w1_i, and an extend entry (i, j-1)
/// against (i, j) while r_j.h <= h2_i. `LListSet::canonicalize` drops
/// what a neighbouring chain makes redundant before its sweep, so this
/// order makes it fast; its result does not depend on the order.
template <typename OpFn>
LCombineResult combine_l_with_rect(const LListSet& l, const RList& r, OpFn&& op,
                                   LPruning pruning, BudgetTracker& budget,
                                   OptimizerStats& stats) {
  assert(!r.empty());
  LCombineResult out;
  std::vector<LEntry> pre_chain;
  std::size_t compact_at = 4096;
  for (const LList& chain : l.lists()) {
    pre_chain.reserve(chain.size());
    for (std::size_t j = 0; j < r.size(); ++j) {
      TransientScope transient(budget);
      for (const LEntry& e : chain) {
        pre_chain.push_back({op(e.shape, r[j]), e.id});
        transient.add(1);
      }
      emit_chain(pre_chain, static_cast<std::uint32_t>(j), out, budget, stats);
      maybe_compact_l(out, pruning, compact_at, budget);
    }
  }
  return out;
}

}  // namespace

LCombineResult combine_wheel_fill_notch(const LListSet& l, const RList& e, LPruning pruning,
                                        BudgetTracker& budget, OptimizerStats& stats) {
  return combine_l_with_rect(
      l, e,
      [](const LImpl& s, const RectImpl& r) {
        const Dim h2 = s.h2 + r.h;
        return LImpl{std::max(s.w1, s.w2 + r.w), s.w2, std::max(s.h1, h2), h2};
      },
      pruning, budget, stats);
}

LCombineResult combine_wheel_extend(const LListSet& l, const RList& c, LPruning pruning,
                                    BudgetTracker& budget, OptimizerStats& stats) {
  return combine_l_with_rect(
      l, c,
      [](const LImpl& s, const RectImpl& r) {
        const Dim y2 = std::max(s.h2, r.h);
        return LImpl{s.w1 + r.w, s.w2, std::max(s.h1, y2), y2};
      },
      pruning, budget, stats);
}

RCombineResult combine_wheel_close(const LListSet& l, const RList& b, BudgetTracker& budget,
                                   OptimizerStats& stats) {
  assert(!b.empty());
  // Each generation context (chain, b[j]) yields a monotone run (w
  // non-increasing, h non-decreasing). It is stack-pruned, and the
  // survivors are merged into a live staircase, which is the result.
  //
  // The budget still simulates [9]'s candidate buffer: every push of the
  // run prune is charged, `charged` is the size the buffer would have, and
  // when it passes `compact_at` the buffer is compacted to the staircase
  // size. That is the size the buffer's own prune would leave: both count
  // the distinct Pareto-minimal shapes seen so far.
  TransientScope transient(budget);
  std::vector<RectImpl> stair;
  std::vector<Prov> stair_prov;
  std::vector<std::uint32_t> run;  // stack-prune survivors, as chain positions
  std::size_t charged = 0;
  std::size_t compact_at = 4096;
  for (const LList& chain : l.lists()) {
    const std::size_t n = chain.size();
    for (std::size_t j = 0; j < b.size(); ++j) {
      const auto at = [&](std::uint32_t i) {
        const LImpl& s = chain[i].shape;
        return RectImpl{std::max(s.w1, s.w2 + b[j].w), std::max(s.h1, s.h2 + b[j].h)};
      };
      stats.total_generated += n;
      run.clear();
      [[maybe_unused]] RectImpl prev{};
      for (std::uint32_t i = 0; i < n; ++i) {
        const RectImpl c = at(i);
        assert(i == 0 || (prev.w >= c.w && prev.h <= c.h));
        prev = c;
        while (!run.empty() && at(run.back()).dominates(c)) run.pop_back();
        if (!run.empty() && c.dominates(at(run.back()))) continue;
        run.push_back(i);
        transient.add(1);
      }
      for (const std::uint32_t i : run) {
        merge_into_staircase(at(i), {chain[i].id, static_cast<std::uint32_t>(j)}, stair,
                             stair_prov);
      }
      charged += run.size();
      if (charged > compact_at) {
        charged = stair.size();
        transient.reset_to(charged);
        compact_at = std::max<std::size_t>(4096, charged * 2);
      }
    }
  }
  return make_rect_result(std::move(stair), std::move(stair_prov), "combine wheel_close");
}

}  // namespace fpopt
