#include "shape/l_list.h"

#include <cassert>
#include <type_traits>

#if defined(FPOPT_VALIDATE)
#include "check/check_shapes.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

namespace fpopt {
namespace {

/// The irreducibility check over shapes, or in place over entries so the
/// LList asserts need not copy the shapes out first.
template <typename T>
[[nodiscard]] bool irreducible_chain(std::span<const T> chain) {
  const auto shape = [chain](std::size_t i) -> const LImpl& {
    if constexpr (std::is_same_v<T, LEntry>) {
      return chain[i].shape;
    } else {
      return chain[i];
    }
  };
  for (std::size_t i = 0; i < chain.size(); ++i) {
    const LImpl& c = shape(i);
    if (!c.valid()) return false;
    if (i == 0) continue;
    const LImpl& p = shape(i - 1);
    if (p.w2 != c.w2) return false;
    if (!(p.w1 > c.w1)) return false;          // strict, or one would dominate
    if (p.h1 > c.h1 || p.h2 > c.h2) return false;  // non-decreasing heights
    if (p.h1 == c.h1 && p.h2 == c.h2) return false;  // or the wider one is redundant
  }
  return true;
}

}  // namespace

bool is_irreducible_l_chain(std::span<const LImpl> chain) { return irreducible_chain(chain); }

LList LList::from_prechain(std::span<const LEntry> cands) {
  LList out;
  out.entries_.reserve(cands.size());
  for (std::size_t i = 0; i < cands.size(); ++i) {
    const LEntry& c = cands[i];
    assert(c.shape.valid());
#ifndef NDEBUG
    if (i > 0) {
      const LImpl& p = cands[i - 1].shape;
      assert(p.w2 == c.shape.w2 && p.w1 >= c.shape.w1 && p.h1 <= c.shape.h1 &&
             p.h2 <= c.shape.h2 && "from_prechain requires monotone generation order");
    }
#endif
    // In pre-chain order an earlier entry dominates a later one only when
    // the heights are equal (earlier is then redundant: same heights,
    // larger width), and a later dominates an earlier only when w1 ties.
    while (!out.entries_.empty() && out.entries_.back().shape.dominates(c.shape)) {
      out.entries_.pop_back();
    }
    if (!out.entries_.empty() && c.shape.dominates(out.entries_.back().shape)) {
      continue;  // c itself is redundant
    }
    out.entries_.push_back(c);
  }
  assert(irreducible_chain(out.entries()));
  return out;
}

LList LList::from_chain_unchecked(std::vector<LEntry> entries) {
  LList out;
  out.entries_ = std::move(entries);
#if defined(FPOPT_VALIDATE)
  enforce(check_l_list(out, "from_chain_unchecked"), "LList::from_chain_unchecked");
#else
  assert(irreducible_chain(out.entries()));
#endif
  return out;
}

std::vector<LImpl> LList::shapes() const {
  std::vector<LImpl> out;
  out.reserve(entries_.size());
  for (const LEntry& e : entries_) out.push_back(e.shape);
  return out;
}

LList LList::subset(std::span<const std::size_t> kept) const {
  LList out;
  out.entries_.reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    assert(kept[i] < entries_.size());
    assert(i == 0 || kept[i - 1] < kept[i]);
    out.entries_.push_back(entries_[kept[i]]);
  }
  assert(irreducible_chain(out.entries()));
  return out;
}

}  // namespace fpopt
