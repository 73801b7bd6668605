// Cross-request sharing of the content-addressed memo cache.
//
// SharedMemoCache wraps one MemoCache behind a mutex so many concurrent
// requests (the fpoptd daemon's) can reuse each other's committed subtree
// results. Requests never touch the shared store directly: each one runs
// against its own CacheSession, which extends the run-local epoch idea
// (memo_cache.h begin/commit/rollback) to per-request isolation:
//
//  * find() serves the session's own provisional inserts first, then
//    falls back to a locked peek of the shared store. A peek copies the
//    entry's handle, not its lists, into session-owned storage: the
//    engine's pointer contract survives concurrent mutation of the store,
//    and a result the store evicts stays alive for as long as the session
//    or the run's artifacts hold it. Peeks deliberately touch neither the
//    shared stats nor the LRU order — shared state never observes a
//    request until that request commits.
//  * insert() is provisional: the entry lands in the session overlay,
//    invisible to every other session.
//  * commit() publishes the overlay into the shared store atomically, in
//    the session's insertion order (so the store's content and eviction
//    sequence are a pure function of the commit order), and folds the
//    session's probe counters into the shared stats.
//  * rollback() discards the overlay; the shared store's stats and bytes
//    stay exactly as the committed trajectories built them.
//
// Determinism: the optimizer's incremental contract makes every run's
// artifacts byte-identical whether a probe hits or misses, so arbitrary
// request interleavings — and therefore arbitrary shared-cache content —
// can never change a response. The shared cache only changes how much
// work a response costs.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "cache/memo_cache.h"

namespace fpopt {

/// The process-wide store. Thread-safe; all access goes through
/// CacheSession except the read-only stats/size accessors.
class SharedMemoCache {
 public:
  /// byte_budget == 0 means unlimited.
  explicit SharedMemoCache(std::size_t byte_budget = MemoCache::kDefaultByteBudget)
      : base_(byte_budget) {}
  SharedMemoCache(const SharedMemoCache&) = delete;
  SharedMemoCache& operator=(const SharedMemoCache&) = delete;

  /// Copy the committed entry for `key` into `out`; `out` shares the
  /// entry's result. Returns false on miss. Mutates nothing — not the
  /// stats, not the LRU order.
  [[nodiscard]] bool lookup(const CacheKey& key, CacheEntry& out) const;

  /// Atomically publish one session: its provisional entries in insertion
  /// order (each evicting under the byte budget exactly as a serial
  /// insert would) and its probe traffic.
  void commit(std::vector<CacheEntry>&& inserts, std::size_t hits, std::size_t misses);

  [[nodiscard]] MemoCacheStats stats() const;
  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::size_t bytes() const;
  [[nodiscard]] std::size_t byte_budget() const;

 private:
  mutable std::mutex mu_;
  MemoCache base_;
};

/// One request's isolated view of a SharedMemoCache. Not thread-safe
/// itself (each request's engine probes from its coordinating thread,
/// exactly like a run-local MemoCache); many sessions may run against the
/// same shared store concurrently. A session that is destroyed without
/// commit() rolls back implicitly.
class CacheSession final : public CacheView {
 public:
  explicit CacheSession(SharedMemoCache& shared) : shared_(&shared) {}

  /// Own provisional inserts and earlier fetches first, then a peek of
  /// the shared store. Hits/misses count into the session stats only
  /// until commit().
  [[nodiscard]] const CacheEntry* find(const CacheKey& key) override;

  /// Provisional insert into the session overlay.
  void insert(const CacheKey& key, std::shared_ptr<const NodeResult> result,
              const NodeProfileRecord& profile) override;

  /// Request-local traffic: what this session's run probed and inserted.
  [[nodiscard]] const MemoCacheStats& stats() const override { return stats_; }

  /// Publish the overlay + probe counters to the shared store. The
  /// session is spent afterwards (find/insert must not be called again).
  void commit();

  /// Discard the overlay; the shared store is untouched.
  void rollback();

  [[nodiscard]] bool open() const { return open_; }

 private:
  struct Slot {
    CacheEntry entry;
    bool provisional = false;  ///< overlay insert (vs a fetched shared entry)
  };

  SharedMemoCache* shared_;
  /// Key -> everything find() ever returned: fetched shared entries and
  /// provisional inserts alike. Map nodes never move, so the pointers
  /// find() hands out survive rehashing. Audited for iteration-order
  /// leaks (rule unordered-iter): only find/emplace/try_emplace/clear —
  /// commit order comes from insert_order_, a plain vector.
  std::unordered_map<CacheKey, Slot, CacheKeyHash> index_;
  std::vector<CacheKey> insert_order_;  ///< provisional keys, oldest first
  MemoCacheStats stats_;
  bool open_ = true;
};

}  // namespace fpopt
