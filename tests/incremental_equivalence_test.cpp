// Incremental-vs-scratch equivalence suite (ISSUE: incremental
// re-optimization engine). The incremental mode promises that a run
// served from the memo cache is *byte-identical* to a scratch run — every
// node's lists and provenance, the stats counters including peak_live,
// the traced placement, and the out-of-memory verdict — at every thread
// count, for any cache state reachable by the annealing protocol
// (commit on accept, rollback on reject, evictions at any time). These
// tests drive hundreds of random topology moves through that protocol
// and compare canonical dumps against fresh scratch runs throughout.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache_key.h"
#include "cache/memo_cache.h"
#include "optimize/artifact_dump.h"
#include "optimize/optimizer.h"
#include "test_util.h"
#include "topology/polish.h"
#include "workload/module_gen.h"
#include "workload/rng.h"

namespace fpopt {
namespace {

std::vector<Module> some_modules(std::size_t n, std::uint64_t seed) {
  ModuleGenConfig cfg;
  cfg.impl_count = 4;
  cfg.min_dim = 3;
  cfg.max_dim = 24;
  cfg.min_area = 60;
  cfg.max_area = 420;
  return generate_modules(n, cfg, seed);
}

/// Scratch run (no cache) of the same options.
OptimizeOutcome scratch_run(const FloorplanTree& tree, OptimizerOptions opts,
                            std::size_t threads) {
  opts.incremental = false;
  opts.cache = nullptr;
  opts.threads = threads;
  return optimize_floorplan(tree, opts);
}

OptimizeOutcome incremental_run(const FloorplanTree& tree, OptimizerOptions opts,
                                MemoCache& cache, std::size_t threads) {
  opts.incremental = true;
  opts.cache = &cache;
  opts.threads = threads;
  return optimize_floorplan(tree, opts);
}

/// Drive `move_count` random annealing-style moves through one shared
/// cache (epoch per move, commit on a coin flip, rollback otherwise) and
/// require every incremental run to byte-equal a scratch run of the same
/// candidate at every thread count in `thread_counts`.
void run_move_sequence(std::size_t module_count, std::uint64_t seed, std::size_t move_count,
                       const OptimizerOptions& base_opts, MemoCache& cache,
                       const std::vector<std::size_t>& thread_counts) {
  const std::vector<Module> modules = some_modules(module_count, seed);
  PolishExpr expr = PolishExpr::initial(modules.size());
  Pcg32 rng(seed, 0x7E57);

  std::size_t applied = 0;
  for (std::size_t attempt = 0; applied < move_count; ++attempt) {
    ASSERT_LT(attempt, move_count * 8) << "move generation starved";
    PolishExpr candidate = expr;
    if (!candidate.random_move(rng)) continue;
    ++applied;
    const FloorplanTree tree = candidate.to_tree(modules);

    const OptimizeOutcome want = scratch_run(tree, base_opts, 0);
    const std::string want_dump = dump_outcome(tree, want);

    // All thread counts probe the same epoch: the first run publishes the
    // dirty nodes, the later ones must be served entirely from cache and
    // still reproduce the scratch bytes.
    cache.begin_epoch();
    for (const std::size_t threads : thread_counts) {
      const OptimizeOutcome got = incremental_run(tree, base_opts, cache, threads);
      ASSERT_EQ(dump_outcome(tree, got), want_dump)
          << "move " << applied << " seed " << seed << " threads " << threads;
    }
    if (rng.unit() < 0.5) {
      cache.commit_epoch();
      expr = std::move(candidate);
    } else {
      cache.rollback_epoch();
    }
  }
}

TEST(IncrementalEquivalence, TwoHundredRandomMovesMatchScratchAtEveryThreadCount) {
  OptimizerOptions opts;
  opts.selection.k1 = 6;
  opts.selection.k2 = 8;
  opts.impl_budget = 0;
  MemoCache cache;
  run_move_sequence(12, 101, 200, opts, cache, {0, 1, 8});
  EXPECT_GT(cache.stats().hits, 0u);
  EXPECT_GT(cache.stats().rollback_discards, 0u);
}

TEST(IncrementalEquivalence, ExactModeMovesMatchScratch) {
  OptimizerOptions opts;  // no selection limits: the exact algorithm
  opts.impl_budget = 0;
  MemoCache cache;
  run_move_sequence(9, 202, 60, opts, cache, {0, 2});
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(IncrementalEquivalence, MoveSequenceStraddlingEvictions) {
  // A byte budget small enough that publishing a handful of nodes evicts
  // earlier entries, so the sequence keeps crossing eviction boundaries;
  // losing entries may only cause recomputes, never different bytes.
  OptimizerOptions opts;
  opts.selection.k1 = 6;
  opts.selection.k2 = 8;
  opts.impl_budget = 0;
  MemoCache cache(12u << 10);  // 12 KiB
  run_move_sequence(10, 303, 60, opts, cache, {0, 2});
  EXPECT_GT(cache.stats().evictions, 0u)
      << "budget too large to exercise evictions — shrink it";
  EXPECT_GT(cache.stats().hits, 0u) << "budget too small for any reuse — grow it";
}

TEST(IncrementalEquivalence, BudgetAbortBoundaryWithWarmAndColdCache) {
  // The out-of-memory decision must straddle exactly like scratch:
  // budget == peak_live completes, budget == peak_live - 1 aborts — with
  // a cold cache, with a warm cache (all hits), and at every thread
  // count. The budget is deliberately NOT part of the cache key, so one
  // cache serves all of these runs. Without a pool (threads 0) a run
  // trips where scratch does, so even an aborted run's stats must match.
  const std::vector<Module> modules = some_modules(10, 404);
  PolishExpr expr = PolishExpr::initial(modules.size());
  Pcg32 rng(404, 0x7E57);
  OptimizerOptions opts;
  opts.selection.k1 = 6;
  opts.selection.k2 = 8;

  MemoCache cache;
  for (std::size_t move = 0; move < 12;) {
    PolishExpr candidate = expr;
    if (!candidate.random_move(rng)) continue;
    ++move;
    expr = std::move(candidate);
    const FloorplanTree tree = expr.to_tree(modules);

    opts.impl_budget = 0;
    const OptimizeOutcome probe = scratch_run(tree, opts, 0);
    ASSERT_FALSE(probe.out_of_memory);
    const std::size_t peak = probe.stats.peak_live;
    ASSERT_GT(peak, 1u);

    for (const std::size_t budget : {peak, peak - 1, peak / 2}) {
      opts.impl_budget = budget;
      const OptimizeOutcome want = scratch_run(tree, opts, 0);
      const std::string want_dump = dump_outcome(tree, want);
      for (const std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
        const OptimizeOutcome got = incremental_run(tree, opts, cache, threads);
        EXPECT_EQ(got.out_of_memory, want.out_of_memory)
            << "move " << move << " budget " << budget << " threads " << threads;
        EXPECT_EQ(dump_outcome(tree, got), want_dump)
            << "move " << move << " budget " << budget << " threads " << threads;
        if (threads == 0) {
          EXPECT_EQ(test::serialize_stats(got.stats), test::serialize_stats(want.stats))
              << "move " << move << " budget " << budget << " (warm cache)";
        }
      }
      MemoCache cold;
      const OptimizeOutcome cold_run = incremental_run(tree, opts, cold, 0);
      EXPECT_EQ(test::serialize_stats(cold_run.stats), test::serialize_stats(want.stats))
          << "move " << move << " budget " << budget << " (cold cache)";
    }
    // Leave the cache warm for the next move: publish the completing run.
    opts.impl_budget = 0;
    (void)incremental_run(tree, opts, cache, 0);
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(IncrementalEquivalence, AbortedRunsPublishNothing) {
  const std::vector<Module> modules = some_modules(8, 505);
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  OptimizerOptions opts;
  opts.impl_budget = 2;  // aborts immediately
  MemoCache cache;
  const OptimizeOutcome got = incremental_run(tree, opts, cache, 0);
  EXPECT_TRUE(got.out_of_memory);
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
}

TEST(IncrementalEquivalence, CacheStateIsIdenticalAcrossThreadCounts) {
  // The probe and publish passes are serial and postorder, so the cache's
  // content, LRU order and hit/miss/eviction counters after a run must
  // not depend on the thread count.
  const std::vector<Module> modules = some_modules(11, 606);
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  OptimizerOptions opts;
  opts.selection.k1 = 6;
  opts.selection.k2 = 8;

  std::vector<std::string> summaries;
  for (const std::size_t threads : {std::size_t{0}, std::size_t{1}, std::size_t{8}}) {
    MemoCache cache(24u << 10);  // small enough to evict
    for (int repeat = 0; repeat < 3; ++repeat) {
      (void)incremental_run(tree, opts, cache, threads);
    }
    const MemoCacheStats s = cache.stats();
    summaries.push_back(std::to_string(cache.size()) + "/" + std::to_string(cache.bytes()) +
                        " h" + std::to_string(s.hits) + " m" + std::to_string(s.misses) +
                        " i" + std::to_string(s.insertions) + " e" +
                        std::to_string(s.evictions));
  }
  EXPECT_EQ(summaries[0], summaries[1]);
  EXPECT_EQ(summaries[0], summaries[2]);
}

/// The internal nodes of the subtree at `node`, in postorder.
void collect_internal(const BinaryNode& node, std::vector<const BinaryNode*>& out) {
  if (node.is_leaf()) return;
  collect_internal(*node.left, out);
  collect_internal(*node.right, out);
  out.push_back(&node);
}

TEST(IncrementalEquivalence, WarmRunSharesServedResultsWithTheCache) {
  // A hit is served by reference: after a warm run every internal node's
  // result is the cache entry's own object, not a copy of it. A cold run
  // publishes copies, so the entries never alias the run's artifacts.
  const std::vector<Module> modules = some_modules(10, 808);
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  OptimizerOptions opts;
  opts.selection.k1 = 6;
  opts.selection.k2 = 8;
  opts.impl_budget = 0;
  const std::string want_dump = dump_outcome(tree, scratch_run(tree, opts, 0));

  for (const std::size_t threads : {std::size_t{0}, std::size_t{8}}) {
    MemoCache cache;
    const OptimizeOutcome cold = incremental_run(tree, opts, cache, threads);
    const OptimizeOutcome warm = incremental_run(tree, opts, cache, threads);
    ASSERT_FALSE(warm.out_of_memory);
    EXPECT_EQ(dump_outcome(tree, warm), want_dump) << "threads " << threads;

    const OptimizeArtifacts& art = *warm.artifacts;
    const std::vector<CacheKey> keys = derive_node_keys(art.btree, tree, opts);
    std::vector<const BinaryNode*> internal;
    collect_internal(*art.btree.root, internal);
    ASSERT_FALSE(internal.empty());
    for (const BinaryNode* node : internal) {
      const CacheEntry* entry = cache.peek(keys[node->id]);
      ASSERT_NE(entry, nullptr) << "node " << node->id;
      EXPECT_EQ(art.nodes[node->id].get(), entry->result.get())
          << "node " << node->id << " threads " << threads << ": served by copy";
      EXPECT_NE(cold.artifacts->nodes[node->id].get(), entry->result.get())
          << "node " << node->id << " threads " << threads << ": published without a copy";
    }
  }
}

TEST(IncrementalEquivalence, IdenticallyShapedModulesShareLeafKeys) {
  // Leaf keys hash implementation *content*, so floorplans that differ
  // only in module naming/order reuse each other's subtree entries.
  std::vector<Module> modules;
  for (int i = 0; i < 6; ++i) {
    modules.emplace_back("m" + std::to_string(i),
                         RList::from_candidates({{4, 6}, {6, 4}, {5, 5}}));
  }
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  OptimizerOptions opts;
  // Checked via the full warm-hit path: a *renamed* copy of the floorplan
  // must be served entirely from the other's cache.
  MemoCache cache;
  opts.incremental = true;
  opts.cache = &cache;
  (void)optimize_floorplan(tree, opts);
  std::vector<Module> renamed = modules;
  for (std::size_t i = 0; i < renamed.size(); ++i) renamed[i].name = "other" + std::to_string(i);
  const FloorplanTree tree2 = PolishExpr::initial(renamed.size()).to_tree(renamed);
  cache.reset_stats();
  (void)optimize_floorplan(tree2, opts);
  EXPECT_EQ(cache.stats().misses, 0u) << "renaming modules must not change cache keys";
}

/// Appends the ids of the internal nodes on the path from the leaf of
/// `module_id` up to `node`, leaf side first; false if no such leaf is
/// under `node`.
bool internal_path_to(const BinaryNode& node, std::size_t module_id,
                      std::vector<std::size_t>& path) {
  if (node.is_leaf()) return node.module_id == module_id;
  if (!internal_path_to(*node.left, module_id, path) &&
      !internal_path_to(*node.right, module_id, path)) {
    return false;
  }
  path.push_back(node.id);
  return true;
}

TEST(IncrementalEquivalence, ChangedImplementationMissesOnlyItsRootPath) {
  // A leaf key follows its module's list digest: after one implementation
  // of one module changes, exactly that leaf's ancestors miss and every
  // other subtree is served from the warm cache.
  std::vector<Module> modules = some_modules(10, 909);
  const PolishExpr expr = PolishExpr::initial(modules.size());
  OptimizerOptions opts;
  opts.selection.k1 = 6;
  opts.selection.k2 = 8;
  opts.impl_budget = 0;
  MemoCache cache;
  const Area old_area = incremental_run(expr.to_tree(modules), opts, cache, 0).best_area;

  const std::size_t changed = 7;  // 3 of the chain's 9 internal nodes are its ancestors
  std::vector<RectImpl> impls(modules[changed].impls.begin(), modules[changed].impls.end());
  ASSERT_GT(impls.back().w, 1);
  --impls.back().w;  // the narrowest implementation narrows: still irreducible
  modules[changed].impls = RList::from_sorted_unchecked(std::move(impls));
  const FloorplanTree tree = expr.to_tree(modules);
  const OptimizeOutcome want = scratch_run(tree, opts, 0);
  // The change must reach the root, or serving the old entries would
  // still match scratch.
  ASSERT_NE(want.best_area, old_area);

  cache.reset_stats();
  const OptimizeOutcome got = incremental_run(tree, opts, cache, 0);
  ASSERT_FALSE(got.out_of_memory);
  EXPECT_EQ(dump_outcome(tree, got), dump_outcome(tree, want));

  const OptimizeArtifacts& art = *got.artifacts;
  std::vector<std::size_t> path;
  ASSERT_TRUE(internal_path_to(*art.btree.root, changed, path));
  std::vector<const BinaryNode*> internal;
  collect_internal(*art.btree.root, internal);
  ASSERT_LT(path.size(), internal.size());
  EXPECT_EQ(cache.stats().misses, path.size());
  EXPECT_EQ(cache.stats().hits, internal.size() - path.size());
  // Node by node: a hit is the cache entry's own object, a miss was
  // computed fresh and published as a copy.
  const std::vector<CacheKey> keys = derive_node_keys(art.btree, tree, opts);
  for (const BinaryNode* node : internal) {
    const bool on_path = std::find(path.begin(), path.end(), node->id) != path.end();
    const CacheEntry* entry = cache.peek(keys[node->id]);
    ASSERT_NE(entry, nullptr) << "node " << node->id;
    EXPECT_EQ(art.nodes[node->id].get() == entry->result.get(), !on_path)
        << "node " << node->id << (on_path ? " on the changed path was served"
                                           : " off the changed path was recomputed");
  }
}

TEST(IncrementalEquivalence, DifferentSelectionConfigsDoNotShareEntries) {
  const std::vector<Module> modules = some_modules(8, 707);
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  MemoCache cache;
  OptimizerOptions a;
  a.selection.k1 = 6;
  a.selection.k2 = 8;
  a.incremental = true;
  a.cache = &cache;
  OptimizerOptions b = a;
  b.selection.k1 = 7;

  const OptimizeOutcome first = optimize_floorplan(tree, a);
  cache.reset_stats();
  const OptimizeOutcome second = optimize_floorplan(tree, b);
  EXPECT_EQ(cache.stats().hits, 0u) << "a different k1 must miss everywhere";

  // And each config keeps hitting its own entries.
  cache.reset_stats();
  (void)optimize_floorplan(tree, a);
  (void)optimize_floorplan(tree, b);
  EXPECT_EQ(cache.stats().misses, 0u);
  EXPECT_EQ(dump_stats(first.stats), dump_stats(optimize_floorplan(tree, a).stats));
  EXPECT_EQ(dump_stats(second.stats), dump_stats(optimize_floorplan(tree, b).stats));
}

}  // namespace
}  // namespace fpopt
