// Unit tests for the content-addressed memo cache (src/cache/): LRU
// ordering, byte-budget eviction, epoch commit/rollback semantics, and
// the cache-key derivation rules the incremental mode relies on.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "cache/cache_key.h"
#include "cache/memo_cache.h"
#include "cache/shared_cache.h"
#include "topology/polish.h"
#include "workload/module_gen.h"

namespace fpopt {
namespace {

CacheKey key_of(std::uint64_t n) { return CacheKey{n, ~n}; }

/// An entry whose R-list has `impls` implementations (so entries have a
/// predictable relative byte footprint).
MemoCache::Entry make_payload(std::size_t impls) {
  NodeResult result;
  std::vector<RectImpl> candidates;
  for (std::size_t i = 0; i < impls; ++i) {
    candidates.push_back({static_cast<Dim>(i + 1), static_cast<Dim>(impls - i + 1)});
  }
  result.rlist = RList::from_candidates(candidates);
  result.rprov.resize(result.rlist.size());
  MemoCache::Entry e;
  e.result = std::make_shared<NodeResult>(std::move(result));
  e.profile.net_stored = impls;
  return e;
}

void insert(MemoCache& cache, std::uint64_t n, std::size_t impls = 4) {
  const MemoCache::Entry payload = make_payload(impls);
  cache.insert(key_of(n), payload.result, payload.profile);
}

TEST(MemoCacheTest, FindReturnsInsertedEntry) {
  MemoCache cache;
  insert(cache, 1, 7);
  const MemoCache::Entry* e = cache.find(key_of(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->result->rlist.size(), 7u);
  EXPECT_EQ(e->profile.net_stored, 7u);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
}

TEST(MemoCacheTest, InsertOverwritesExistingKey) {
  MemoCache cache;
  insert(cache, 1, 3);
  insert(cache, 1, 9);
  EXPECT_EQ(cache.size(), 1u);
  const MemoCache::Entry* e = cache.find(key_of(1));
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->result->rlist.size(), 9u);
}

TEST(MemoCacheTest, EvictsLeastRecentlyUsedUnderByteBudget) {
  // Budget fits roughly three entries; inserting a fourth must evict the
  // least recently *used* (not least recently inserted) one.
  MemoCache probe(0);
  insert(probe, 0, 6);
  const std::size_t per_entry = probe.bytes();
  ASSERT_GT(per_entry, 0u);

  MemoCache cache(3 * per_entry + per_entry / 2);
  insert(cache, 1, 6);
  insert(cache, 2, 6);
  insert(cache, 3, 6);
  ASSERT_EQ(cache.size(), 3u);
  ASSERT_NE(cache.find(key_of(1)), nullptr);  // touch 1: now 2 is the LRU
  insert(cache, 4, 6);
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(2)), nullptr) << "the LRU entry must go first";
  EXPECT_NE(cache.find(key_of(3)), nullptr);
  EXPECT_NE(cache.find(key_of(4)), nullptr);
  EXPECT_LE(cache.bytes(), cache.byte_budget());
}

TEST(MemoCacheTest, FreshInsertIsNeverEvictedByItsOwnInsertion) {
  MemoCache probe(0);
  insert(probe, 0, 12);
  // Budget smaller than one entry: the entry still lands (evicting
  // everything else), because evicting the fresh result would make the
  // cache useless for oversized nodes.
  MemoCache cache(probe.bytes() / 2);
  insert(cache, 1, 12);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
}

TEST(MemoCacheTest, ZeroBudgetMeansUnlimited) {
  MemoCache cache(0);
  for (std::uint64_t n = 0; n < 200; ++n) insert(cache, n, 8);
  EXPECT_EQ(cache.size(), 200u);
  EXPECT_EQ(cache.stats().evictions, 0u);
}

TEST(MemoCacheTest, RollbackRemovesEpochInsertions) {
  MemoCache cache;
  insert(cache, 1);
  cache.begin_epoch();
  insert(cache, 2);
  insert(cache, 3);
  EXPECT_EQ(cache.size(), 3u);
  cache.rollback_epoch();
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.find(key_of(1)), nullptr);
  EXPECT_EQ(cache.find(key_of(2)), nullptr);
  EXPECT_EQ(cache.find(key_of(3)), nullptr);
  EXPECT_EQ(cache.stats().rollback_discards, 2u);
}

TEST(MemoCacheTest, CommitKeepsEpochInsertions) {
  MemoCache cache;
  cache.begin_epoch();
  insert(cache, 2);
  cache.commit_epoch();
  EXPECT_FALSE(cache.in_epoch());
  EXPECT_NE(cache.find(key_of(2)), nullptr);
  // A later rollback of a new, empty epoch must not touch it.
  cache.begin_epoch();
  cache.rollback_epoch();
  EXPECT_NE(cache.find(key_of(2)), nullptr);
}

TEST(MemoCacheTest, EvictionsInsideAnEpochArePermanent) {
  MemoCache probe(0);
  insert(probe, 0, 6);
  const std::size_t per_entry = probe.bytes();

  MemoCache cache(2 * per_entry + per_entry / 2);
  insert(cache, 1, 6);
  insert(cache, 2, 6);
  cache.begin_epoch();
  insert(cache, 3, 6);  // evicts 1 (LRU)
  ASSERT_EQ(cache.stats().evictions, 1u);
  cache.rollback_epoch();
  // 3 (epoch insertion) is gone, and the evicted 1 does NOT come back —
  // losing an entry can only cause a recompute, never a wrong result.
  EXPECT_EQ(cache.find(key_of(3)), nullptr);
  EXPECT_EQ(cache.find(key_of(1)), nullptr);
  EXPECT_NE(cache.find(key_of(2)), nullptr);
}

TEST(MemoCacheTest, BytesTrackInsertionsAndClear) {
  MemoCache cache;
  EXPECT_EQ(cache.bytes(), 0u);
  insert(cache, 1, 10);
  const std::size_t one = cache.bytes();
  EXPECT_GT(one, 0u);
  insert(cache, 2, 10);
  EXPECT_GT(cache.bytes(), one);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(MemoCacheTest, ApproxEntryBytesGrowsWithPayload) {
  EXPECT_LT(approx_entry_bytes(*make_payload(2).result),
            approx_entry_bytes(*make_payload(40).result));
}

TEST(MemoCacheTest, ApproxEntryBytesChargesTheResultNotItsHandle) {
  // An entry holds its result behind a shared handle, but the byte budget
  // charges the result it owns, so the handle's size must not leak in.
  const std::size_t fields =
      sizeof(CacheKey) + sizeof(NodeResult) + sizeof(NodeProfileRecord) + sizeof(std::size_t);
  EXPECT_EQ(approx_entry_bytes(NodeResult{}), fields);
}

// ---- cache keys ---------------------------------------------------------

TEST(CacheKeyTest, DeterministicAndConfigSensitive) {
  const std::vector<Module> modules =
      generate_modules(6, ModuleGenConfig{.impl_count = 4}, 11);
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  OptimizerOptions opts;
  opts.selection.k1 = 6;

  const BinaryTree bt = restructure(tree, opts.restructure);
  const std::vector<CacheKey> a = derive_node_keys(bt, tree, opts);
  const std::vector<CacheKey> b = derive_node_keys(bt, tree, opts);
  EXPECT_EQ(a, b);

  OptimizerOptions changed = opts;
  changed.selection.theta = 0.5;
  const std::vector<CacheKey> c = derive_node_keys(bt, tree, changed);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NE(a[i], c[i]) << "node " << i << ": theta must be part of every key";
  }
}

TEST(CacheKeyTest, BudgetAndThreadsDoNotChangeKeys) {
  const std::vector<Module> modules =
      generate_modules(5, ModuleGenConfig{.impl_count = 3}, 13);
  const FloorplanTree tree = PolishExpr::initial(modules.size()).to_tree(modules);
  OptimizerOptions opts;
  const BinaryTree bt = restructure(tree, opts.restructure);
  const std::vector<CacheKey> base = derive_node_keys(bt, tree, opts);

  OptimizerOptions other = opts;
  other.impl_budget = 123;
  other.threads = 8;
  other.incremental = true;
  EXPECT_EQ(base, derive_node_keys(bt, tree, other))
      << "budget/threads never change a completed node's bytes";
}

// ---------------------------------------------------------------------------
// Cross-request isolation (cache/shared_cache.h): concurrent-epoch
// property tests for the daemon's SharedMemoCache / CacheSession pair.

/// Deterministic payload per key so any cross-session leak or corruption
/// shows up as a content mismatch, not just a wrong count.
std::size_t payload_impls(std::uint64_t n) { return (n % 5) + 2; }

TEST(SharedCacheIsolation, SessionSeesOwnInsertsButNotOthers) {
  SharedMemoCache shared(0);
  CacheSession a(shared);
  CacheSession b(shared);
  const MemoCache::Entry payload = make_payload(3);
  a.insert(key_of(1), payload.result, payload.profile);
  ASSERT_NE(a.find(key_of(1)), nullptr);
  EXPECT_EQ(b.find(key_of(1)), nullptr) << "provisional insert leaked across sessions";
  EXPECT_EQ(shared.size(), 0u) << "provisional insert leaked into the shared store";
  a.commit();
  EXPECT_EQ(shared.size(), 1u);
  // Still invisible to b's earlier miss bookkeeping, but a new probe hits.
  ASSERT_NE(b.find(key_of(1)), nullptr);
  EXPECT_EQ(b.find(key_of(1))->result->rlist.size(), 3u);
  b.rollback();
}

TEST(SharedCacheIsolation, UncommittedProbesNeverTouchSharedStatsOrLru) {
  SharedMemoCache shared(0);
  {
    CacheSession s(shared);
    const MemoCache::Entry payload = make_payload(4);
    EXPECT_EQ(s.find(key_of(9)), nullptr);
    s.insert(key_of(9), payload.result, payload.profile);
    (void)s.find(key_of(9));
    s.rollback();
  }
  const MemoCacheStats stats = shared.stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.insertions, 0u);
  EXPECT_EQ(shared.bytes(), 0u);
  EXPECT_EQ(shared.size(), 0u);
}

/// N simulated requests interleaved at random: every find must see
/// exactly (own session contents) ∪ (entries committed so far) — never
/// another request's provisional inserts — and the final shared store
/// must equal a serial replay of only the committed trajectories.
TEST(SharedCacheIsolation, RandomInterleavingsMatchCommittedReplay) {
  constexpr std::uint64_t kKeySpace = 20;
  constexpr int kSessions = 6;
  for (std::uint32_t seed = 0; seed < 8; ++seed) {
    std::mt19937 rng(seed);
    // A tight byte budget on odd seeds exercises commit-order eviction.
    const std::size_t budget = (seed % 2 == 0) ? 0 : 4096;
    SharedMemoCache shared(budget);

    struct Sim {
      std::optional<CacheSession> session;
      std::set<std::uint64_t> seen;              ///< keys find() returned or inserted
      std::vector<std::uint64_t> inserted;       ///< provisional inserts, in order
      std::size_t hits = 0;
      std::size_t misses = 0;
      bool will_commit = false;
      int ops_left = 0;
    };
    std::vector<Sim> sims(kSessions);
    for (Sim& sim : sims) {
      sim.session.emplace(shared);
      sim.will_commit = rng() % 3 != 0;  // ~1/3 of requests roll back
      sim.ops_left = 10 + static_cast<int>(rng() % 20);
    }
    std::set<std::uint64_t> committed;  ///< keys in the shared store right now
    struct CommittedTrajectory {
      std::vector<std::uint64_t> inserted;
      std::size_t hits = 0;
      std::size_t misses = 0;
    };
    std::vector<CommittedTrajectory> commit_log;

    int open = kSessions;
    while (open > 0) {
      const std::size_t pick = rng() % sims.size();
      Sim& sim = sims[pick];
      if (!sim.session.has_value()) continue;
      if (sim.ops_left-- > 0) {
        const std::uint64_t k = rng() % kKeySpace;
        const bool expect_hit = sim.seen.count(k) != 0 || committed.count(k) != 0;
        const MemoCache::Entry* found = sim.session->find(key_of(k));
        if (budget == 0) {
          // With no eviction, visibility is exact: own view ∪ committed.
          ASSERT_EQ(found != nullptr, expect_hit)
              << "seed " << seed << " key " << k << " session " << pick;
        } else if (found != nullptr) {
          ASSERT_TRUE(expect_hit) << "provisional entry leaked: seed " << seed
                                  << " key " << k << " session " << pick;
        }
        if (found != nullptr) {
          ++sim.hits;
          // Content must match the key's canonical payload: a leak of
          // another session's in-flight overwrite would betray itself.
          EXPECT_EQ(found->result->rlist.size(), payload_impls(k));
          sim.seen.insert(k);
        } else {
          ++sim.misses;
          const MemoCache::Entry payload = make_payload(payload_impls(k));
          sim.session->insert(key_of(k), payload.result, payload.profile);
          sim.seen.insert(k);
          sim.inserted.push_back(k);
        }
      } else {
        if (sim.will_commit) {
          EXPECT_EQ(sim.session->stats().hits, sim.hits);
          EXPECT_EQ(sim.session->stats().misses, sim.misses);
          sim.session->commit();
          for (const std::uint64_t k : sim.inserted) committed.insert(k);
          commit_log.push_back({sim.inserted, sim.hits, sim.misses});
        } else {
          sim.session->rollback();
        }
        sim.session.reset();
        --open;
      }
    }

    // Serial replay of only the committed trajectories, in commit order,
    // must reproduce the shared store exactly: stats, bytes, size,
    // eviction history. Rolled-back sessions left no trace by contract.
    MemoCache replay(budget);
    for (const CommittedTrajectory& t : commit_log) {
      replay.note_probes(t.hits, t.misses);
      for (const std::uint64_t k : t.inserted) {
        const MemoCache::Entry payload = make_payload(payload_impls(k));
        replay.insert(key_of(k), payload.result, payload.profile);
      }
    }
    const MemoCacheStats got = shared.stats();
    const MemoCacheStats want = replay.stats();
    EXPECT_EQ(got.hits, want.hits) << "seed " << seed;
    EXPECT_EQ(got.misses, want.misses) << "seed " << seed;
    EXPECT_EQ(got.insertions, want.insertions) << "seed " << seed;
    EXPECT_EQ(got.evictions, want.evictions) << "seed " << seed;
    EXPECT_EQ(got.peak_bytes, want.peak_bytes) << "seed " << seed;
    EXPECT_EQ(shared.bytes(), replay.bytes()) << "seed " << seed;
    EXPECT_EQ(shared.size(), replay.size()) << "seed " << seed;
  }
}

TEST(SharedCacheIsolation, ConcurrentSessionsAreRaceFreeAndConsistent) {
  // The TSan-guarded case: many threads run full session lifecycles
  // against one shared store. Every observed entry must carry its key's
  // canonical payload, and the final store must be consistent.
  constexpr int kThreads = 8;
  constexpr int kRounds = 40;
  constexpr std::uint64_t kKeySpace = 12;
  SharedMemoCache shared(0);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&shared, t] {
      std::mt19937 rng(static_cast<std::uint32_t>(t) * 7919u + 13u);
      for (int round = 0; round < kRounds; ++round) {
        CacheSession session(shared);
        for (int op = 0; op < 6; ++op) {
          const std::uint64_t k = rng() % kKeySpace;
          const MemoCache::Entry* found = session.find(key_of(k));
          if (found != nullptr) {
            // Torn or cross-session state would show the wrong payload.
            EXPECT_EQ(found->result->rlist.size(), payload_impls(k));
          } else {
            const MemoCache::Entry payload = make_payload(payload_impls(k));
            session.insert(key_of(k), payload.result, payload.profile);
          }
        }
        if (rng() % 4 == 0) {
          session.rollback();
        } else {
          session.commit();
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_LE(shared.size(), kKeySpace);
  const MemoCacheStats stats = shared.stats();
  EXPECT_EQ(stats.hits + stats.misses, stats.probes());
  EXPECT_GE(stats.insertions, shared.size());
}

/// True when `result` carries key `n`'s canonical payload.
bool carries_payload(const NodeResult& result, std::uint64_t n) {
  return result.rlist == make_payload(payload_impls(n)).result->rlist;
}

TEST(SharedCacheIsolation, ServedResultsOutliveEviction) {
  // A served entry shares the store's result. When another session's
  // commit evicts that key, the holder's copy must stay intact until the
  // holder lets go, and the last holder frees it.
  {
    SharedMemoCache shared(1);  // every commit evicts all older entries
    CacheSession writer(shared);
    writer.insert(key_of(1), make_payload(payload_impls(1)).result, {});
    writer.commit();

    CacheSession reader(shared);
    const CacheEntry* held = reader.find(key_of(1));
    ASSERT_NE(held, nullptr);
    const std::weak_ptr<const NodeResult> watch = held->result;
    std::shared_ptr<const NodeResult> kept = held->result;  // as a run's artifacts would

    CacheSession evictor(shared);
    evictor.insert(key_of(2), make_payload(payload_impls(2)).result, {});
    evictor.commit();
    CacheEntry gone;
    ASSERT_FALSE(shared.lookup(key_of(1), gone)) << "key 1 was not evicted";
    EXPECT_EQ(shared.stats().evictions, 1u);

    EXPECT_TRUE(carries_payload(*held->result, 1));
    EXPECT_EQ(reader.find(key_of(1)), held) << "the session keeps serving what it fetched";
    reader.rollback();
    EXPECT_TRUE(carries_payload(*kept, 1));
    kept.reset();
    EXPECT_TRUE(watch.expired()) << "an evicted result outlived its last holder";
  }

  // Concurrent: readers hold served entries while writers commit enough
  // inserts to evict them from a store that fits about two entries.
  constexpr int kReaders = 2;
  constexpr int kWriters = 2;
  constexpr int kRounds = 30;
  constexpr std::uint64_t kKeySpace = 16;
  MemoCache probe(0);
  insert(probe, 0, payload_impls(4));  // the largest payload
  SharedMemoCache shared(2 * probe.bytes());
  std::atomic<int> readers_done{0};
  std::atomic<std::size_t> evicted_while_held{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      std::mt19937 rng(static_cast<std::uint32_t>(w) * 104729u + 7u);
      while (readers_done.load() < kReaders) {
        const std::uint64_t k = rng() % kKeySpace;
        CacheSession session(shared);
        session.insert(key_of(k), make_payload(payload_impls(k)).result, {});
        session.commit();
      }
    });
  }
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      for (int round = 0; round < kRounds; ++round) {
        CacheSession session(shared);
        std::vector<std::pair<std::uint64_t, std::shared_ptr<const NodeResult>>> held;
        for (std::uint64_t k = 0; k < kKeySpace; ++k) {
          if (const CacheEntry* e = session.find(key_of(k)); e != nullptr) {
            held.emplace_back(k, e->result);
          }
        }
        // Wait for three more commits: the held keys are evicted by then
        // unless a writer re-inserted them.
        const std::size_t target = shared.stats().insertions + 3;
        for (int spin = 0; spin < 1'000'000 && shared.stats().insertions < target; ++spin) {
          std::this_thread::yield();
        }
        for (const auto& [k, result] : held) {
          CacheEntry now;
          if (!shared.lookup(key_of(k), now)) ++evicted_while_held;
          EXPECT_TRUE(carries_payload(*result, k)) << "key " << k;
          EXPECT_TRUE(carries_payload(*session.find(key_of(k))->result, k)) << "key " << k;
        }
        session.rollback();
        for (const auto& [k, result] : held) EXPECT_TRUE(carries_payload(*result, k));
      }
      ++readers_done;
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(shared.stats().evictions, 0u);
  EXPECT_GT(evicted_while_held.load(), 0u) << "no held entry was ever evicted";
}

TEST(CacheKeyTest, ConfigFingerprintSeparatesKnobs) {
  OptimizerOptions a;
  OptimizerOptions b;
  b.selection.k2 = 5;
  OptimizerOptions c;
  c.l_pruning = LPruning::PerChain;
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(a));
  EXPECT_NE(config_fingerprint(a), config_fingerprint(b));
  EXPECT_NE(config_fingerprint(a), config_fingerprint(c));
  EXPECT_NE(config_fingerprint(b), config_fingerprint(c));
}

}  // namespace
}  // namespace fpopt
