// Tests for the work-stealing thread pool and TaskGroup join scope
// (src/runtime/thread_pool.h): dependency-ordered task graphs, exception
// propagation, nested submission, shutdown with queued tasks, and a
// stress run with thousands of tiny tasks.
#include "runtime/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <memory>
#include <thread>
#include <numeric>
#include <stdexcept>
#include <vector>

namespace fpopt {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4u);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 100; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 100);
}

TEST(ThreadPool, NullPoolRunsInline) {
  // TaskGroup(nullptr) is the serial fallback: run() executes immediately
  // on the calling thread, in submission order.
  std::vector<int> order;
  TaskGroup group(nullptr);
  for (int i = 0; i < 5; ++i) {
    group.run([&order, i] { order.push_back(i); });
  }
  group.wait();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ThreadPool, SingleWorkerStillCompletes) {
  ThreadPool pool(1);
  std::atomic<int> ran{0};
  TaskGroup group(&pool);
  for (int i = 0; i < 50; ++i) {
    group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  EXPECT_EQ(ran.load(), 50);
}

TEST(ThreadPool, DependencyCountingOrdersTasks) {
  // A reduction tree like the optimizer's T' schedule: node i of a layer
  // fires only after both inputs from the layer below completed. The
  // atomic pending counters are exactly the scheme of the optimizer
  // engine's pool schedule.
  ThreadPool pool(4);
  constexpr std::size_t kLeaves = 64;
  // values[layer][i]; each internal node sums its two children.
  std::vector<std::vector<std::atomic<long>>> values;
  std::vector<std::vector<std::atomic<int>>> pending;
  for (std::size_t n = kLeaves; n >= 1; n /= 2) {
    values.emplace_back(n);
    pending.emplace_back(n);
    for (std::size_t i = 0; i < n; ++i) {
      values.back()[i].store(0);
      pending.back()[i].store(n == kLeaves ? 0 : 2);
    }
    if (n == 1) break;
  }
  TaskGroup group(&pool);
  // exec(layer, i): compute the node, then cascade to the parent.
  std::function<void(std::size_t, std::size_t)> exec = [&](std::size_t layer, std::size_t i) {
    if (layer == 0) {
      values[0][i].store(static_cast<long>(i) + 1);
    } else {
      // Children must be done: pending hit zero before this task ran.
      const long sum = values[layer - 1][2 * i].load(std::memory_order_acquire) +
                       values[layer - 1][2 * i + 1].load(std::memory_order_acquire);
      ASSERT_GT(sum, 0);  // both children wrote a positive value
      values[layer][i].store(sum);
    }
    if (layer + 1 < values.size() &&
        pending[layer + 1][i / 2].fetch_sub(1, std::memory_order_acq_rel) == 1) {
      group.run([&exec, layer, i] { exec(layer + 1, i / 2); });
    }
  };
  for (std::size_t i = 0; i < kLeaves; ++i) {
    group.run([&exec, i] { exec(0, i); });
  }
  group.wait();
  // Root = 1 + 2 + ... + kLeaves.
  EXPECT_EQ(values.back()[0].load(), static_cast<long>(kLeaves * (kLeaves + 1) / 2));
}

TEST(ThreadPool, ExceptionPropagatesToWait) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  std::atomic<int> ran{0};
  for (int i = 0; i < 20; ++i) {
    group.run([&ran, i] {
      if (i == 7) throw std::runtime_error("task failed");
      ran.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_THROW(group.wait(), std::runtime_error);
  EXPECT_TRUE(group.poisoned());
}

TEST(ThreadPool, PoisonedGroupSkipsLaterTasks) {
  ThreadPool pool(2);
  TaskGroup group(&pool);
  group.run([] { throw std::runtime_error("poison"); });
  try {
    group.wait();
    FAIL() << "expected the poison exception";
  } catch (const std::runtime_error&) {
  }
  // After the failure, newly submitted tasks are skipped (never run); the
  // exception was consumed by the first wait() and is reported only once.
  EXPECT_TRUE(group.poisoned());
  std::atomic<int> ran{0};
  group.run([&ran] { ran.fetch_add(1); });
  group.wait();
  EXPECT_EQ(ran.load(), 0);
}

TEST(ThreadPool, NestedSubmissionDoesNotDeadlock) {
  // Tasks that submit subtasks into their own group and tasks whose
  // wait() runs on a worker thread (help-while-wait) must both complete.
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  TaskGroup outer(&pool);
  for (int i = 0; i < 8; ++i) {
    outer.run([&pool, &ran] {
      TaskGroup inner(&pool);
      for (int j = 0; j < 8; ++j) {
        inner.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
      }
      inner.wait();  // runs on a worker; must help instead of blocking
    });
  }
  outer.wait();
  EXPECT_EQ(ran.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks) {
  // Submitting fire-and-forget work and destroying the pool must run (not
  // drop) everything: TaskGroup increments land before wait, and the
  // destructor drains the queues before joining the workers.
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    TaskGroup group(&pool);
    for (int i = 0; i < 200; ++i) {
      group.run([&ran] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
    group.wait();
  }  // pool destroyed here
  EXPECT_EQ(ran.load(), 200);
}

TEST(ThreadPool, StressManyTinyTasks) {
  ThreadPool pool(4);
  constexpr std::size_t kTasks = 20'000;
  std::vector<std::atomic<int>> hit(kTasks);
  for (auto& h : hit) h.store(0);
  TaskGroup group(&pool);
  for (std::size_t i = 0; i < kTasks; ++i) {
    group.run([&hit, i] { hit[i].fetch_add(1, std::memory_order_relaxed); });
  }
  group.wait();
  for (std::size_t i = 0; i < kTasks; ++i) {
    ASSERT_EQ(hit[i].load(), 1) << "task " << i << " ran " << hit[i].load() << " times";
  }
}

TEST(ThreadPool, IdleTimeIsMonotonicAcrossSnapshots) {
  // stats() snapshots lifetime counters; idle_seconds must never move
  // backwards between snapshots, and grows while workers sleep.
  ThreadPool pool(2);
  TaskGroup group(&pool);
  for (int i = 0; i < 32; ++i) {
    group.run([] {});
  }
  group.wait();
  const telemetry::PoolStats before = pool.stats();
  for (const telemetry::WorkerStats& w : before.workers) {
    EXPECT_GE(w.idle_seconds, 0.0);
  }
  // Let the workers sleep, then hand the pool one task that only a worker
  // can run: this thread polls for it instead of helping (as
  // TaskGroup::wait would), so however slowly a sleeping worker wakes,
  // one does, and the wake accounts its sleep (idle time is added on
  // wake, before the task runs). A worker still between tasks when the
  // task arrives runs it without sleeping, so retry until a wake lands.
  telemetry::PoolStats after = pool.stats();
  for (int tries = 0; tries < 200; ++tries) {
    if constexpr (telemetry::kEnabled) {
      if (after.total_idle_seconds() > before.total_idle_seconds()) break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    // Shared, so a task the pool runs late never touches a dead local.
    auto ran = std::make_shared<std::atomic<bool>>(false);
    pool.submit([ran] { ran->store(true, std::memory_order_release); });
    for (int polls = 0; polls < 10'000 && !ran->load(std::memory_order_acquire);
         ++polls) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_TRUE(ran->load(std::memory_order_acquire))
        << "no worker ran a submitted task within 10 s";
    after = pool.stats();
  }
  ASSERT_EQ(after.workers.size(), before.workers.size());
  for (std::size_t i = 0; i < after.workers.size(); ++i) {
    EXPECT_GE(after.workers[i].idle_seconds, before.workers[i].idle_seconds)
        << "worker " << i << " idle time went backwards";
  }
  if constexpr (telemetry::kEnabled) {
    EXPECT_GT(after.total_idle_seconds(), before.total_idle_seconds());
  } else {
    EXPECT_EQ(after.total_idle_seconds(), 0.0);
  }
}

}  // namespace
}  // namespace fpopt
