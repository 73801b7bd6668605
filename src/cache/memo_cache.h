// Content-addressed memo cache for per-node optimization results.
//
// An entry stores one T' node's complete NodeResult (R-list / irreducible
// L-set with provenance) together with the node's *memory and stats
// profile* — the net stored delta it leaves behind, its intra-node peaks,
// and its additive stats counters. The result is immutable and held by a
// shared handle, so serving a hit replaces the combine/selection kernels
// with a reference count bump: the run's artifacts share the entry's
// lists, and keep them alive if the entry is later evicted. The engine
// replays the recorded profile through the serial-postorder budget model,
// so an incremental run reports byte-identical stats (including
// peak_live) and makes the identical out-of-memory decision a scratch run
// would (docs/ALGORITHMS.md §8).
//
// Eviction is LRU under a byte budget. Epochs support speculative
// workloads (the annealing loop): insertions made between begin_epoch()
// and rollback_epoch() are removed again, so a rejected move leaves the
// cache exactly as the accepted trajectory built it; commit_epoch() keeps
// them. Evictions are permanent either way — losing an entry can only
// cause a recompute, never a wrong result.
//
// The cache is deliberately NOT thread-safe: the engine probes it in a
// serial pre-pass before fanning work out and publish new entries in a
// serial post-pass (in postorder, so the cache's content and LRU order
// are identical for every thread count). Concurrent requests share work
// through SharedMemoCache + per-request CacheSession (shared_cache.h),
// which speak the same CacheView interface the engine consumes.
#pragma once

#include <cstddef>
#include <list>
#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_key.h"
#include "optimize/node_result.h"  // FPOPT-LINT-OK(layering): entries store the engine's NodeResult vocabulary type; header-only coupling, no engine code called
#include "optimize/stats.h"  // FPOPT-LINT-OK(layering): profile records replay OptimizerStats counters; header-only coupling, no engine code called

namespace fpopt {

class CacheView;  // below

/// One node's recorded evaluation profile: everything the serial-replay
/// budget model needs to account for the node without re-running it.
struct NodeProfileRecord {
  OptimizerStats counters;         ///< this node's additive counters only
  std::size_t net_stored = 0;      ///< stored delta the node leaves behind
  std::size_t peak_stored = 0;     ///< intra-node peak, relative to entry
  std::size_t peak_transient = 0;  ///< intra-node transient peak
  std::size_t peak_total = 0;      ///< intra-node stored+transient peak
  std::size_t subtree_net = 0;     ///< net_stored summed over the subtree
};

struct MemoCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t insertions = 0;
  std::size_t evictions = 0;          ///< entries dropped by the byte budget
  std::size_t rollback_discards = 0;  ///< entries removed by rollback_epoch
  std::size_t peak_bytes = 0;         ///< largest footprint ever held

  [[nodiscard]] std::size_t probes() const { return hits + misses; }
  [[nodiscard]] double hit_rate() const {
    return probes() == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(probes());
  }
};

/// One cached node: the key, the complete NodeResult, and the recorded
/// memory/stats profile the serial-replay budget model consumes. Copying
/// an entry shares its result.
struct CacheEntry {
  CacheKey key;
  std::shared_ptr<const NodeResult> result;
  NodeProfileRecord profile;
  std::size_t bytes = 0;
};

/// The engine-facing cache interface. The engine's serve/publish passes
/// only ever probe and insert, so any store that can answer those two —
/// the run-local MemoCache, or a per-request CacheSession over the
/// daemon's shared cross-request cache (shared_cache.h) — plugs into
/// OptimizerOptions::cache unchanged.
class CacheView {
 public:
  virtual ~CacheView() = default;

  /// Look up a key. The returned pointer stays valid until the next
  /// insert / rollback / clear on this view.
  [[nodiscard]] virtual const CacheEntry* find(const CacheKey& key) = 0;

  /// Insert (or overwrite) an entry. The view keeps `result` as given,
  /// sharing it with whoever else holds the handle.
  virtual void insert(const CacheKey& key, std::shared_ptr<const NodeResult> result,
                      const NodeProfileRecord& profile) = 0;

  /// Probe/insert counters of this view (a session reports its own
  /// request-local traffic, not the shared store's lifetime totals).
  [[nodiscard]] virtual const MemoCacheStats& stats() const = 0;
};

class MemoCache : public CacheView {
 public:
  using Entry = CacheEntry;

  static constexpr std::size_t kDefaultByteBudget = 256u << 20;  // 256 MiB

  /// byte_budget == 0 means unlimited.
  explicit MemoCache(std::size_t byte_budget = kDefaultByteBudget)
      : byte_budget_(byte_budget) {}

  /// Look up a key; a hit moves the entry to the front of the LRU order.
  /// The pointer stays valid until the next insert / rollback / clear.
  [[nodiscard]] const Entry* find(const CacheKey& key) override;

  /// Look up a key without touching stats or the LRU order (a pure read,
  /// usable under a shared lock). The pointer stays valid until the next
  /// insert / rollback / clear.
  [[nodiscard]] const Entry* peek(const CacheKey& key) const;

  /// Insert (or overwrite) an entry, then evict least-recently-used
  /// entries until the byte budget holds again (the fresh entry itself is
  /// never evicted by its own insertion).
  void insert(const CacheKey& key, std::shared_ptr<const NodeResult> result,
              const NodeProfileRecord& profile) override;

  /// Fold a committed session's probe traffic into this store's stats
  /// (sessions probe via peek, which deliberately counts nothing).
  void note_probes(std::size_t hits, std::size_t misses) {
    stats_.hits += hits;
    stats_.misses += misses;
  }

  /// Epochs (no nesting): insertions after begin_epoch() are provisional
  /// until commit_epoch() keeps them or rollback_epoch() removes them.
  void begin_epoch();
  void commit_epoch();
  void rollback_epoch();
  [[nodiscard]] bool in_epoch() const { return epoch_open_; }

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t bytes() const { return bytes_; }
  [[nodiscard]] std::size_t byte_budget() const { return byte_budget_; }
  [[nodiscard]] const MemoCacheStats& stats() const override { return stats_; }
  void reset_stats() { stats_ = {}; }
  void clear();

 private:
  using LruList = std::list<Entry>;

  void erase(LruList::iterator it);
  void evict_to_budget(LruList::iterator keep);

  std::size_t byte_budget_;
  std::size_t bytes_ = 0;
  LruList lru_;  ///< front = most recently used
  /// Key -> LRU position. Audited for iteration-order leaks (rule
  /// unordered-iter): only find/emplace/erase/clear — never iterated.
  /// Eviction and publish order walk lru_, whose order is a pure
  /// function of the (deterministic, serial) probe/insert sequence.
  std::unordered_map<CacheKey, LruList::iterator, CacheKeyHash> map_;
  std::vector<CacheKey> epoch_inserts_;
  bool epoch_open_ = false;
  MemoCacheStats stats_;
};

/// Approximate heap footprint of one entry holding `result` (used for the
/// byte budget): the entry's fields with the result itself counted in
/// place of its handle, plus the result's lists.
[[nodiscard]] std::size_t approx_entry_bytes(const NodeResult& result);

}  // namespace fpopt
