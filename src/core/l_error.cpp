#include "core/l_error.h"

#include <algorithm>
#include <cassert>
#include <cstdlib>

#include "core/r_error.h"  // triangular_index
#include "shape/l_list.h"

namespace fpopt {

Weight l_dist(const LImpl& a, const LImpl& b, LpMetric metric) {
  const Area d1 = std::llabs(a.w1 - b.w1);
  const Area d2 = std::llabs(a.w2 - b.w2);
  const Area d3 = std::llabs(a.h1 - b.h1);
  const Area d4 = std::llabs(a.h2 - b.h2);
  switch (metric) {
    case LpMetric::L1:
      return static_cast<Weight>(d1 + d2 + d3 + d4);
    case LpMetric::L2:
      return std::sqrt(static_cast<Weight>(d1 * d1 + d2 * d2 + d3 * d3 + d4 * d4));
    case LpMetric::LInf:
      return static_cast<Weight>(std::max({d1, d2, d3, d4}));
  }
  return 0;  // unreachable
}

std::vector<Weight> compute_l_error_table(std::span<const LImpl> chain, LpMetric metric) {
  assert(is_irreducible_l_chain(chain));
  const std::size_t n = chain.size();
  std::vector<Weight> table(n >= 2 ? n * (n - 1) / 2 : 0, 0);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      Weight e = 0;
      for (std::size_t q = i + 1; q < j; ++q) {
        e += std::min(l_dist(chain[i], chain[q], metric), l_dist(chain[q], chain[j], metric));
      }
      table[triangular_index(n, i, j)] = e;
    }
  }
  return table;
}

L1ErrorOracle::L1ErrorOracle(std::span<const LImpl> chain) {
  assert(is_irreducible_l_chain(chain));
  s_.resize(chain.size());
  prefix_.resize(chain.size() + 1, 0);
  for (std::size_t q = 0; q < chain.size(); ++q) {
    s_[q] = -chain[q].w1 + chain[q].h1 + chain[q].h2;
    prefix_[q + 1] = prefix_[q] + s_[q];
  }
}

Weight L1ErrorOracle::error(std::size_t i, std::size_t j) const {
  assert(i < j && j < s_.size());
  if (j - i <= 1) return 0;
  // Largest m in (i, j) with s_m - s_i <= s_j - s_m, i.e. 2 s_m <= s_i + s_j.
  // Elements up to m are charged to l_i, the rest to l_j.
  const Area threshold = s_[i] + s_[j];
  const auto begin = s_.begin() + static_cast<std::ptrdiff_t>(i) + 1;
  const auto end = s_.begin() + static_cast<std::ptrdiff_t>(j);
  const auto split = std::upper_bound(begin, end, threshold,
                                      [](Area t, Area sm) { return t < 2 * sm; });
  const std::size_t m = static_cast<std::size_t>(split - s_.begin());  // first index charged to j

  const Area left_count = static_cast<Area>(m - i - 1);
  const Area right_count = static_cast<Area>(j - m);
  const Area left_sum = prefix_[m] - prefix_[i + 1];
  const Area right_sum = prefix_[j] - prefix_[m];
  const Area total = (left_sum - left_count * s_[i]) + (right_count * s_[j] - right_sum);
  return static_cast<Weight>(total);
}

}  // namespace fpopt
