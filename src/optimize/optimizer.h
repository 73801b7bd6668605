// The floorplan area optimizer: Wang & Wong's DAC'90 exact algorithm [9]
// plus this paper's selection hooks (Section 3).
//
// The engine restructures the floorplan tree into the binary tree T',
// computes every internal node's non-redundant implementation list bottom
// up with the kernels in combine.h, and — when selection limits are set —
// reduces any list that exceeds them with R_Selection / L_Selection right
// after it is generated. Limits of 0 reproduce the exact algorithm [9].
//
// All node lists stay live until the end of the run (they are needed for
// traceback, exactly as in [9]); a configurable implementation budget
// simulates the paper's memory exhaustion and aborts the run when the
// total live implementation count exceeds it.
//
// There is one engine with two schedules. With OptimizerOptions::threads
// == 0 it evaluates T' in a plain postorder loop. With threads > 0 it
// runs on a work-stealing thread pool: every internal node becomes a
// task that fires once both children's NodeResults are ready, and the
// node itself runs serially on one worker. The result is
// *deterministic* — node lists, provenance, selection certificates, stats
// counters and the memory-budget abort decision are bit-identical for
// every thread count (see docs/ALGORITHMS.md §7 for the scheduling and
// budget-accounting model).
//
// With OptimizerOptions::incremental and a MemoCache, the engine serves
// every T' node whose content-addressed subtree key is already cached —
// after a topology move only the dirty root-path is recomputed — while
// served nodes replay their recorded memory/stats profiles, preserving
// the same bit-identical contract (docs/ALGORITHMS.md §8).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "core/l_error.h"
#include "core/r_selection.h"
#include "floorplan/restructure.h"
#include "floorplan/tree.h"
#include "optimize/combine.h"
#include "optimize/node_result.h"
#include "optimize/stats.h"
#include "shape/l_list_set.h"
#include "shape/r_list.h"
#include "telemetry/telemetry.h"

namespace fpopt {

class CacheView;   // src/cache/memo_cache.h
class ThreadPool;  // src/runtime/thread_pool.h

/// The paper's knobs (Sections 3 and 5).
struct SelectionConfig {
  /// Max implementations per rectangular block (0 = exact, no limit).
  /// Must be 0 or at least 2: R_Selection keeps both staircase endpoints,
  /// so k1 == 1 trips its precondition. Input surfaces (the CLI flag
  /// parsers, the fpoptd protocol) reject 1 before it gets here.
  std::size_t k1 = 0;
  std::size_t k2 = 0;  ///< max implementations per L-shaped block (0 = no limit)
  /// Section 5 trigger: run L_Selection only when K2/X < theta (X the
  /// block's current count). 1.0 = reduce whenever the limit is exceeded.
  double theta = 1.0;
  /// Section 5's S: per-list heuristic pre-reduction cap for L_Selection
  /// (0 = always run the optimal selector directly).
  std::size_t heuristic_cap = 1024;
  LpMetric metric = LpMetric::L1;
  SelectionDp dp = SelectionDp::Auto;
};

struct OptimizerOptions {
  SelectionConfig selection;
  /// Simulated memory capacity in implementations (live stored +
  /// transient); 0 = unlimited. Exceeding it aborts the run the way [9]
  /// aborted on the SPARC (the "-" rows of Tables 3 and 4).
  std::size_t impl_budget = 800'000;
  /// GlobalAtNode reproduces [9]: every internal node ends up storing
  /// exactly its non-redundant implementations, pruned once generation
  /// for the node finishes. See LPruning for the two other modes.
  LPruning l_pruning = LPruning::GlobalAtNode;
  RestructureOptions restructure;
  /// Pool workers. 0 = no pool: a postorder loop on the calling thread;
  /// N >= 1 = dependency-counting bottom-up schedule over T' on an
  /// N-worker work-stealing pool (the calling thread helps too), one task
  /// per node. Results are bit-identical for every value. At most
  /// kMaxThreads: the CLI flag parsers and the fpoptd protocol reject
  /// larger values.
  std::size_t threads = 0;
  static constexpr std::size_t kMaxThreads = 256;
  /// Incremental mode: serve every T' node whose content-addressed
  /// subtree key is present in `cache` from the cache (only the dirty
  /// root-path of a move is recomputed) and publish the recomputed nodes
  /// back after a successful run. Served nodes replay their recorded
  /// memory/stats profiles through the serial-postorder budget model, so
  /// artifacts, stats (including peak_live) and the out-of-memory
  /// decision are byte-identical to a scratch run at any thread count.
  /// No effect unless `cache` is also set.
  bool incremental = false;
  /// The memo cache for incremental mode. Not owned. The engine touches
  /// it only from the coordinating thread, in a serial pre-pass (probe)
  /// and a serial post-pass (publish), so the view itself need not be
  /// thread-safe — but one view must not be shared by concurrent
  /// optimize_floorplan calls. Concurrent callers each bring their own
  /// view: a run-local MemoCache, or a per-request CacheSession over the
  /// daemon's SharedMemoCache (cache/shared_cache.h).
  CacheView* cache = nullptr;
  /// Optional externally owned pool for the pool schedule (threads >
  /// 0). When null the engine spins up its own `threads`-worker pool for
  /// the run — the standalone behavior. A long-running process (fpoptd)
  /// passes one process-wide pool instead so concurrent runs share the
  /// workers; results stay bit-identical either way (the schedule is
  /// deterministic for every worker count). Shared-pool runs leave
  /// OptimizeOutcome::pool_stats empty: a shared pool's counters span
  /// many runs and belong to the process, not to any one outcome.
  ThreadPool* pool = nullptr;
};

// NodeResult and OptimizeArtifacts live in optimize/node_result.h (the
// memo cache stores NodeResults and must not depend on the engine).

struct OptimizeOutcome {
  /// True when the simulated memory budget was exceeded — the run aborted
  /// the way [9] did on the SPARC; root/best_area are then meaningless.
  bool out_of_memory = false;
  RList root;          ///< non-redundant implementations of the whole floorplan
  Area best_area = 0;  ///< min w*h over root (0 when out_of_memory)
  OptimizerStats stats;
  /// Wall-clock per phase ("restructure", "evaluate"); timing only, never
  /// part of any determinism comparison. Empty under FPOPT_TELEMETRY=OFF.
  std::vector<telemetry::PhaseSample> phases;
  /// Scheduling counters of the run's thread pool (captured even when the
  /// run aborted). Empty for serial runs and under FPOPT_TELEMETRY=OFF.
  telemetry::PoolStats pool_stats;
  std::shared_ptr<const OptimizeArtifacts> artifacts;  ///< null when out_of_memory
};

/// Run the optimizer. `tree` must be well-formed (validate() empty).
[[nodiscard]] OptimizeOutcome optimize_floorplan(const FloorplanTree& tree,
                                                 const OptimizerOptions& opts = {});

}  // namespace fpopt
