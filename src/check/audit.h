// End-to-end invariant audit of one optimizer run.
//
// audit_optimize() restructures and optimizes a floorplan exactly like
// optimize_floorplan(), then turns every checker in src/check/ loose on the
// artifacts: the binary tree shape, every node's implementation store and
// provenance, the root list and its claimed best area, fresh selection
// certificates on the largest lists, and traced placements for a sample of
// root implementations. This is the engine behind the fpopt_audit tool and
// the audit tests; unlike the FPOPT_VALIDATE hooks (which abort at the
// first broken invariant) it collects everything into one report.
#pragma once

#include <cstddef>

#include "cache/memo_cache.h"
#include "check/check.h"
#include "floorplan/tree.h"
#include "optimize/optimizer.h"

namespace fpopt {

struct AuditOptions {
  OptimizerOptions optimizer;
  /// How many root implementations get traced to a placement and checked
  /// (evenly spread over the root list; 0 disables placement checks).
  std::size_t max_traced_placements = 16;
  /// How many of the largest R-lists / L-lists get a fresh selection run
  /// whose certificate is then re-derived (0 disables).
  std::size_t certificate_samples = 4;
};

struct AuditReport {
  CheckResult checks;
  /// The run hit the simulated memory budget; artifacts are absent and no
  /// structural checks ran. Not a violation — it is a legal outcome.
  bool out_of_memory = false;
  Area best_area = 0;
  std::size_t root_impls = 0;
  std::size_t nodes_checked = 0;
  std::size_t placements_checked = 0;
  std::size_t certificates_checked = 0;
  OptimizerStats stats;

  [[nodiscard]] bool ok() const { return checks.ok(); }
};

[[nodiscard]] AuditReport audit_optimize(const FloorplanTree& tree,
                                         const AuditOptions& opts = {});

struct IncrementalAuditReport {
  CheckResult checks;
  /// The scratch run hit the simulated memory budget. The incremental
  /// runs must reach the same verdict (checked), but no artifact bytes
  /// exist to compare.
  bool out_of_memory = false;
  MemoCacheStats cold_stats;  ///< first incremental run (every node misses)
  MemoCacheStats warm_stats;  ///< second incremental run (every node should hit)

  [[nodiscard]] bool ok() const { return checks.ok(); }
};

/// Independent proof of the incremental mode's contract on one
/// floorplan: run the optimizer from scratch, then twice in incremental
/// mode against one fresh memo cache (a cold run that populates it and a
/// warm run served from it), and require the canonical artifact dumps —
/// every node list with provenance, stats including peak_live, the traced
/// min-area placement, or the out-of-memory verdict — to be byte-equal
/// across all three. The warm run must also actually hit the cache on
/// every internal node, so a silently cold cache cannot pass.
[[nodiscard]] IncrementalAuditReport audit_incremental(const FloorplanTree& tree,
                                                       const AuditOptions& opts = {});

}  // namespace fpopt
