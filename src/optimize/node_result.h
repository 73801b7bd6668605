// The per-node artifact of an optimizer run: one T' node's implementation
// store with provenance. Split out of optimizer.h so the memo cache
// (src/cache) can hold NodeResults without pulling in the whole engine —
// the cache library touches this type only through its value semantics,
// mirroring how src/check stays a leaf library.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "floorplan/restructure.h"
#include "optimize/combine.h"
#include "shape/l_list_set.h"
#include "shape/r_list.h"

namespace fpopt {

/// Computed implementation list of one T' node, with provenance.
struct NodeResult {
  bool is_l = false;
  // Rectangular blocks:
  RList rlist;
  std::vector<Prov> rprov;  ///< parallel to rlist
  // L-shaped blocks:
  LListSet lset;
  std::vector<Prov> lprov;  ///< indexed by LEntry::id

  /// Locate an L entry by id (nullptr if it was pruned/selected away).
  [[nodiscard]] const LImpl* find_l(std::uint32_t id) const;
};

/// Everything needed to trace an optimal implementation back to rooms.
struct OptimizeArtifacts {
  BinaryTree btree;
  /// By BinaryNode::id. A node's result is immutable once stored, so a
  /// node served from the memo cache shares the cache entry's result
  /// instead of copying it.
  std::vector<std::shared_ptr<const NodeResult>> nodes;
};

}  // namespace fpopt
