// Irreducible L-lists (Definitions 3 and 5 of the paper).
//
// Within one L-list all implementations share the top-edge width w2, while
// w1 strictly decreases and (h1, h2) componentwise never decreases, with at
// least one of the two heights rising at every step (two neighbours with
// equal heights would make the wider one redundant). This is
// the chain structure the DAC'90 optimizer produces naturally: combining a
// child R-list (w decreasing, h increasing) with one fixed sibling
// implementation yields exactly such a chain.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geometry/l_impl.h"
#include "geometry/types.h"

namespace fpopt {

/// An L implementation plus the producer-assigned provenance key. Shape
/// transformations (pruning, chain partition, L_Selection) preserve ids so
/// the optimizer can map survivors back to the child implementations that
/// generated them.
struct LEntry {
  LImpl shape;
  std::uint32_t id = 0;

  friend bool operator==(const LEntry&, const LEntry&) = default;
};

/// True iff `chain` is an irreducible L-list: constant w2, strictly
/// decreasing w1, componentwise non-decreasing (h1,h2) that differs
/// between consecutive elements, and every element canonically valid.
[[nodiscard]] bool is_irreducible_l_chain(std::span<const LImpl> chain);

/// An irreducible L-list. Invariant: is_irreducible_l_chain(shapes) holds.
class LList {
 public:
  LList() = default;

  /// Build from a "pre-chain": candidates already in generation order
  /// (w2 constant, w1 non-increasing, (h1,h2) non-decreasing, ties and
  /// dominated entries allowed). Dominated entries are pruned in one
  /// stack sweep. Asserts the monotone precondition in debug builds.
  [[nodiscard]] static LList from_prechain(std::span<const LEntry> cands);

  /// Adopt entries that already form an irreducible chain (debug-checked).
  [[nodiscard]] static LList from_chain_unchecked(std::vector<LEntry> entries);

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] bool empty() const { return entries_.empty(); }
  [[nodiscard]] const LEntry& operator[](std::size_t i) const { return entries_[i]; }
  [[nodiscard]] std::span<const LEntry> entries() const { return entries_; }

  [[nodiscard]] auto begin() const { return entries_.begin(); }
  [[nodiscard]] auto end() const { return entries_.end(); }

  /// Common top-edge width of the chain. Precondition: non-empty.
  [[nodiscard]] Dim w2() const { return entries_.front().shape.w2; }

  /// Shapes only, for algorithms that do not care about ids.
  [[nodiscard]] std::vector<LImpl> shapes() const;

  /// New chain holding entries()[i] for each i in `kept` (strictly
  /// increasing). Subsets of irreducible chains stay irreducible.
  [[nodiscard]] LList subset(std::span<const std::size_t> kept) const;

  friend bool operator==(const LList&, const LList&) = default;

 private:
  std::vector<LEntry> entries_;
};

}  // namespace fpopt
