#include "shape/l_list_set.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <numeric>

namespace fpopt {
namespace {

/// Flag each entry e of chain `b` that an entry of chain `a` (same w2)
/// makes redundant: e dominates it and differs from it, or equals it and
/// has the larger id, the sweep's tie rule. In both chains w1 strictly falls and the heights
/// never fall, so the entries of `a` with w1 <= e.w1 form a suffix of `a`
/// whose first entry has the smallest heights in it. No two entries of a
/// chain share both heights, so e is redundant against `a` exactly when
/// that entry's heights are both <= e's. The suffix start only moves
/// forward as e.w1 falls: one pass over each chain.
void flag_redundant_against(const LList& a, const LList& b, std::uint8_t* drop_b) {
  std::size_t i = 0;
  for (std::size_t j = 0; j < b.size(); ++j) {
    const LEntry& e = b[j];
    while (i < a.size() && a[i].shape.w1 > e.shape.w1) ++i;
    if (i == a.size()) return;
    const LEntry& f = a[i];
    if (f.shape.h1 <= e.shape.h1 && f.shape.h2 <= e.shape.h2 &&
        (f.shape != e.shape || f.id < e.id)) {
      drop_b[j] = 1;
    }
  }
}

}  // namespace

void LListSet::add(LList list) {
  if (list.empty()) return;
  total_ += list.size();
  lists_.push_back(std::move(list));
}

std::vector<LEntry> LListSet::all_entries() const {
  std::vector<LEntry> out;
  out.reserve(total_);
  for (const LList& l : lists_) {
    out.insert(out.end(), l.begin(), l.end());
  }
  return out;
}

void LListSet::replace_lists(std::vector<LList> lists) {
  lists_.clear();
  total_ = 0;
  for (LList& l : lists) add(std::move(l));
}

std::vector<LEntry> pareto_min_l_entries(std::vector<LEntry> entries) {
#ifndef NDEBUG
  for (const LEntry& e : entries) {
    assert(e.shape.w2 == entries.front().shape.w2);
  }
#endif
  // Sweep in (w1 asc, h1 asc, h2 asc, id asc) order. Everything already
  // kept has w1 <= current (and for w1 ties, h1 <=), so the current entry
  // is redundant iff some kept entry has both heights <=. The id makes the
  // order total, so the smallest id of a duplicate is kept. The kept
  // heights form a 2-D staircase of (h1, h2) steps, h1 strictly increasing
  // and h2 strictly decreasing: each step's h2 is the smallest over kept
  // entries with that h1 or less. It holds a handful of steps, so a flat
  // vector serves it.
  std::sort(entries.begin(), entries.end(), [](const LEntry& a, const LEntry& b) {
    if (a.shape.w1 != b.shape.w1) return a.shape.w1 < b.shape.w1;
    if (a.shape.h1 != b.shape.h1) return a.shape.h1 < b.shape.h1;
    if (a.shape.h2 != b.shape.h2) return a.shape.h2 < b.shape.h2;
    return a.id < b.id;
  });

  struct Step {
    Dim h1;
    Dim h2;
  };
  std::vector<Step> frontier;
  std::vector<LEntry> kept;
  kept.reserve(entries.size());
  for (const LEntry& e : entries) {
    const Dim h1 = e.shape.h1;
    const Dim h2 = e.shape.h2;
    auto above = std::partition_point(frontier.begin(), frontier.end(),
                                      [&](const Step& s) { return s.h1 <= h1; });
    if (above != frontier.begin() && std::prev(above)->h2 <= h2) continue;  // dominated
    kept.push_back(e);
    // Insert (h1, h2): it replaces a step at the same h1 and supersedes the
    // steps above it whose h2 is no smaller.
    auto pos = above != frontier.begin() && std::prev(above)->h1 == h1 ? std::prev(above) : above;
    auto end = above;
    while (end != frontier.end() && end->h2 >= h2) ++end;
    frontier.insert(frontier.erase(pos, end), {h1, h2});
  }
  return kept;
}

std::vector<LList> partition_into_chains(std::vector<LEntry> entries) {
  // Chain order is w1 strictly decreasing with (h1,h2) non-decreasing, so
  // process in (w1 desc, h1 asc, h2 asc) order and first-fit each entry
  // onto a chain whose tail has strictly larger w1 and componentwise <=
  // heights. Entries sharing a w1 value are mutually unchainable; first-fit
  // handles that automatically because tails gain the current w1 as soon
  // as one batch member lands on them.
  std::sort(entries.begin(), entries.end(), [](const LEntry& a, const LEntry& b) {
    if (a.shape.w1 != b.shape.w1) return a.shape.w1 > b.shape.w1;
    if (a.shape.h1 != b.shape.h1) return a.shape.h1 < b.shape.h1;
    return a.shape.h2 < b.shape.h2;
  });

  std::vector<std::vector<LEntry>> chains;
  for (const LEntry& e : entries) {
    bool placed = false;
    for (auto& chain : chains) {
      const LImpl& tail = chain.back().shape;
      if (tail.w1 > e.shape.w1 && tail.h1 <= e.shape.h1 && tail.h2 <= e.shape.h2) {
        chain.push_back(e);
        placed = true;
        break;
      }
    }
    if (!placed) chains.push_back({e});
  }

  std::vector<LList> out;
  out.reserve(chains.size());
  for (auto& chain : chains) {
    out.push_back(LList::from_chain_unchecked(std::move(chain)));
  }
  return out;
}

std::size_t LListSet::canonicalize() {
  if (lists_.empty()) return 0;
  const std::size_t before = total_;

  // Every chain has one w2, so grouping whole chains by w2 groups the
  // entries. The stable sort keeps each group's chains in the order they
  // were added, which is where the combine kernels put related chains.
  std::vector<std::size_t> order(lists_.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return lists_[a].w2() < lists_[b].w2(); });

  std::vector<LList> new_lists;
  std::vector<std::uint8_t> drop;  // per entry of the group, chain after chain
  for (std::size_t lo = 0; lo < order.size();) {
    const Dim w2 = lists_[order[lo]].w2();
    std::size_t hi = lo;
    std::size_t size = 0;
    for (; hi < order.size() && lists_[order[hi]].w2() == w2; ++hi) {
      size += lists_[order[hi]].size();
    }
    // Drop what a neighbouring chain makes redundant before the sweep has
    // to sort it. That cannot change the Pareto set: an entry the sweep
    // keeps loses to nothing, so it is never dropped, and every other
    // survivor still loses to one of those.
    drop.assign(size, 0);
    for (std::size_t k = lo, off = 0; k + 1 < hi; ++k) {
      const LList& a = lists_[order[k]];
      const LList& b = lists_[order[k + 1]];
      flag_redundant_against(a, b, drop.data() + off + a.size());
      flag_redundant_against(b, a, drop.data() + off);
      off += a.size();
    }
    std::vector<LEntry> group;
    group.reserve(size - static_cast<std::size_t>(std::count(drop.begin(), drop.end(), 1)));
    for (std::size_t k = lo, off = 0; k < hi; ++k) {
      for (const LEntry& e : lists_[order[k]]) {
        if (drop[off++] == 0) group.push_back(e);
      }
    }
    for (LList& c : partition_into_chains(pareto_min_l_entries(std::move(group)))) {
      new_lists.push_back(std::move(c));
    }
    lo = hi;
  }

  replace_lists(std::move(new_lists));
  return before - total_;
}

}  // namespace fpopt
