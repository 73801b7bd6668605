#include "optimize/curve_queries.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace fpopt {

std::optional<std::size_t> best_in_outline(const RList& curve, Dim max_w, Dim max_h) {
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    if (curve[i].w > max_w || curve[i].h > max_h) continue;
    if (!best || curve[i].area() < curve[*best].area()) best = i;
  }
  return best;
}

std::optional<std::size_t> best_with_aspect(const RList& curve, double min_ratio,
                                            double max_ratio) {
  assert(min_ratio > 0 && min_ratio <= max_ratio);
  std::optional<std::size_t> best;
  for (std::size_t i = 0; i < curve.size(); ++i) {
    const double ratio = static_cast<double>(curve[i].h) / static_cast<double>(curve[i].w);
    if (ratio < min_ratio || ratio > max_ratio) continue;
    if (!best || curve[i].area() < curve[*best].area()) best = i;
  }
  return best;
}

Dim smallest_square_side(const RList& curve) {
  assert(!curve.empty());
  Dim best = std::numeric_limits<Dim>::max();
  for (const RectImpl& r : curve) best = std::min(best, std::max(r.w, r.h));
  return best;
}

}  // namespace fpopt
