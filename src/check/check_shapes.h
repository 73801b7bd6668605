// Validators for the shape stores: irreducible R-lists (Definitions 4-5),
// irreducible L-lists (Definition 3) and L-list sets (Section 3).
//
// All monotonicity and dominance conditions are re-derived here from the
// definitions; none of these functions call is_irreducible_r_list /
// is_irreducible_l_chain or the pruning code they audit.
#pragma once

#include <span>
#include <string_view>

#include "check/check.h"
#include "geometry/rect_impl.h"
#include "shape/l_list.h"
#include "shape/l_list_set.h"
#include "shape/r_list.h"

namespace fpopt {

/// Definition 4 + 5: every shape valid, w strictly decreasing, h strictly
/// increasing. Strict bitonicity is exactly dominance-freedom for
/// rectangles: any violation exhibits a pair where one implementation
/// dominates (Definition 1) the other.
[[nodiscard]] CheckResult check_r_list(std::span<const RectImpl> impls,
                                       std::string_view where = "r-list");
[[nodiscard]] CheckResult check_r_list(const RList& list, std::string_view where = "r-list");

/// Definition 3: every shape canonically valid, constant w2, strictly
/// decreasing w1, componentwise non-decreasing (h1, h2) that differs
/// between neighbours. The strict w1 order and the rising height together
/// are within-chain dominance-freedom. The span overload exists so tests
/// can feed doctored chains that LList's own constructors would reject.
[[nodiscard]] CheckResult check_l_list(std::span<const LImpl> chain,
                                       std::string_view where = "l-list");
[[nodiscard]] CheckResult check_l_list(const LList& chain, std::string_view where = "l-list");

/// Every chain of the set irreducible; when `cross_list` is set (the
/// GlobalAtNode / GlobalEager contract), additionally no implementation
/// anywhere in the set is dominated by or duplicates one in another chain
/// of the same w2 group.
[[nodiscard]] CheckResult check_l_list_set(const LListSet& set, bool cross_list = true,
                                           std::string_view where = "l-set");

}  // namespace fpopt
