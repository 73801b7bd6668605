#include "shape/r_list.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#if defined(FPOPT_VALIDATE)
#include "check/check_shapes.h"  // FPOPT-LINT-OK(layering): FPOPT_VALIDATE post-condition hook; compiled to no-ops by default
#endif

namespace fpopt {

std::vector<std::size_t> prune_rect_candidates(std::span<const RectImpl> cands) {
  std::vector<std::size_t> order(cands.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  // Sort by (w asc, h asc, index asc): a candidate is redundant iff some
  // candidate seen earlier in this order already has h <= its h. The index
  // makes the order total, so the first copy of a duplicate is kept.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (cands[a].w != cands[b].w) return cands[a].w < cands[b].w;
    if (cands[a].h != cands[b].h) return cands[a].h < cands[b].h;
    return a < b;
  });

  std::vector<std::size_t> kept;
  Dim min_h = std::numeric_limits<Dim>::max();
  for (std::size_t idx : order) {
    if (cands[idx].h < min_h) {
      kept.push_back(idx);
      min_h = cands[idx].h;
    }
  }
  // kept is currently (w asc, h desc); R-list order is w strictly desc.
  std::reverse(kept.begin(), kept.end());
  return kept;
}

RList RList::from_candidates(std::vector<RectImpl> cands) {
  const std::vector<std::size_t> kept = prune_rect_candidates(cands);
  RList out;
  out.impls_.reserve(kept.size());
  for (std::size_t idx : kept) out.impls_.push_back(cands[idx]);
  assert(is_irreducible_r_list(out.impls_));
  return out;
}

RList RList::from_sorted_unchecked(std::vector<RectImpl> impls) {
#if defined(FPOPT_VALIDATE)
  enforce(check_r_list(impls, "from_sorted_unchecked"), "RList::from_sorted_unchecked");
#else
  assert(is_irreducible_r_list(impls));
#endif
  RList out;
  out.impls_ = std::move(impls);
  return out;
}

std::size_t RList::min_area_index() const {
  assert(!impls_.empty());
  std::size_t best = 0;
  for (std::size_t i = 1; i < impls_.size(); ++i) {
    if (impls_[i].area() < impls_[best].area()) best = i;
  }
  return best;
}

RList RList::subset(std::span<const std::size_t> kept) const {
  RList out;
  out.impls_.reserve(kept.size());
  for (std::size_t i = 0; i < kept.size(); ++i) {
    assert(kept[i] < impls_.size());
    assert(i == 0 || kept[i - 1] < kept[i]);
    out.impls_.push_back(impls_[kept[i]]);
  }
  assert(is_irreducible_r_list(out.impls_));
  return out;
}

}  // namespace fpopt
