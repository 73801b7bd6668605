// Sets of irreducible L-lists: the store for all non-redundant
// implementations of an L-shaped block (Section 3 of the paper).
//
// For a fixed top-edge width w2 the non-redundant implementations form a
// 3-D Pareto-minimal set over (w1, h1, h2), which is generally *not* a
// single chain; the DAC'90 optimizer therefore keeps a set of chains.
// Chains arrive naturally from the combine loops (one per generation
// context); `canonicalize()` then removes cross-chain redundancy and
// re-partitions each w2 group into irreducible chains.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "shape/l_list.h"

namespace fpopt {

class LListSet {
 public:
  LListSet() = default;

  /// Append a chain (empty chains are ignored).
  void add(LList list);

  [[nodiscard]] std::span<const LList> lists() const { return lists_; }
  [[nodiscard]] std::size_t list_count() const { return lists_.size(); }
  [[nodiscard]] std::size_t total_size() const { return total_; }
  [[nodiscard]] bool empty() const { return total_ == 0; }

  /// All entries of all chains, flattened (chain order, then chain index).
  [[nodiscard]] std::vector<LEntry> all_entries() const;

  /// Remove every implementation dominated by another one anywhere in the
  /// set (global Pareto-minimal prune per w2 group, keeping the smallest id
  /// of exact duplicates), then re-partition each group into irreducible
  /// chains. Entry ids are preserved. Returns the number of entries removed.
  ///
  /// Each group's chains are first compared with their neighbours in the
  /// order they were added, and what a neighbour makes redundant is dropped
  /// before the Pareto sweep sorts the rest. With ids unique across chains,
  /// as the combine kernels assign them, the result does not depend on the
  /// order in which the chains were added; only the speed does, since the
  /// combine kernels add related chains next to each other.
  std::size_t canonicalize();

  /// Replace the stored chains wholesale (each must be irreducible).
  void replace_lists(std::vector<LList> lists);

  friend bool operator==(const LListSet&, const LListSet&) = default;

 private:
  std::vector<LList> lists_;
  std::size_t total_ = 0;
};

/// Partition `entries` (all sharing one w2, mutually non-dominating) into
/// irreducible chains. Exposed separately for unit testing.
[[nodiscard]] std::vector<LList> partition_into_chains(std::vector<LEntry> entries);

/// Pareto-minimal subset of `entries` under Definition 1 dominance. Of
/// exact duplicates (equal shape) the entry with the smallest id survives,
/// so the result does not depend on the input order. All entries must
/// share one w2. Exposed separately for unit testing.
[[nodiscard]] std::vector<LEntry> pareto_min_l_entries(std::vector<LEntry> entries);

}  // namespace fpopt
