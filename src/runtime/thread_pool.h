// A small work-stealing thread pool for the optimizer's pool schedule.
//
// Each worker owns a deque: the owner pushes and pops at the back (LIFO:
// a node that finishes submits its parent, which the same worker runs
// next) while thieves steal from the front (FIFO, grabs the oldest
// task). Tasks submitted from outside the pool land in a shared
// injection queue that workers fall back to when their own deque and
// stealing both come up empty.
//
// Synchronization is deliberately boring: one small mutex per deque plus
// a sleep mutex/condvar for idle workers. The pool is a scheduling layer,
// not a hot loop — one task is one T' node, coarse enough that queue
// traffic never dominates.
//
// Guarantees:
//  * Nested submission: a task may submit more tasks and wait on them
//    (TaskGroup::wait helps execute pending work, so waiting inside a
//    worker never deadlocks the pool).
//  * Drain-on-shutdown: the destructor runs every task already submitted
//    before joining the workers; nothing is silently dropped.
//  * Exception propagation: TaskGroup captures the first exception thrown
//    by any of its tasks and rethrows it from wait().
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/telemetry.h"

namespace fpopt {

class ThreadPool {
 public:
  /// Spawns `workers` threads (at least 1).
  explicit ThreadPool(unsigned workers);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned worker_count() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Enqueue a task. From a worker thread the task goes to that worker's
  /// own deque; from outside it goes to the shared injection queue. Must
  /// not be called after the destructor has started.
  void submit(std::function<void()> fn);

  /// Execute one pending task on the calling thread if any is available
  /// anywhere (own deque, stealing, injection queue). Returns false when
  /// every queue was empty — tasks may still be running on other workers.
  bool run_one();

  /// The pool the calling thread is a worker of, or nullptr.
  [[nodiscard]] static ThreadPool* current();

  /// Lifetime scheduling counters: one slot per worker plus a final
  /// synthetic slot for external threads that execute tasks through
  /// run_one (TaskGroup::wait helping from the coordinator). The values
  /// are scheduling-dependent by nature — report them, never compare
  /// them. All-zero when built with FPOPT_TELEMETRY=OFF.
  [[nodiscard]] telemetry::PoolStats stats() const;

 private:
  struct WorkerQueue {
    std::mutex mu;
    std::deque<std::function<void()>> deque;
  };

  struct SlotCounters {
    telemetry::Counter tasks_run;
    telemetry::Counter steals;
    telemetry::Counter shared_pops;
    telemetry::Counter idle_ns;
  };

  void worker_main(std::size_t index);
  bool try_acquire(std::size_t home, std::function<void()>& out);
  void notify_one_sleeper();

  std::vector<WorkerQueue> queues_;  ///< one per worker
  std::vector<SlotCounters> counters_;  ///< queues_.size() + 1 (external slot last)
  std::mutex inject_mu_;
  std::deque<std::function<void()>> inject_;  ///< external submissions

  std::mutex sleep_mu_;
  std::condition_variable sleep_cv_;
  std::atomic<std::size_t> pending_{0};  ///< queued, not yet started
  std::atomic<bool> stop_{false};

  std::vector<std::thread> workers_;
};

/// A join scope over a set of tasks. Not reusable across waits from
/// multiple threads at once; the usual pattern is create, run() N tasks
/// (tasks may themselves run() more into the same group), wait(), destroy.
class TaskGroup {
 public:
  /// A null pool degrades gracefully: run() executes the task inline on
  /// the calling thread, which keeps serial code paths byte-identical.
  explicit TaskGroup(ThreadPool* pool) : pool_(pool) {}
  ~TaskGroup() { wait_no_throw(); }
  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Submit `fn` into the group. If a previous task of this group already
  /// threw, `fn` is skipped (it still counts as finished) — sibling work
  /// is pointless once the group is poisoned.
  void run(std::function<void()> fn);

  /// Block until every task of the group has finished, executing pending
  /// pool tasks on this thread while waiting. Rethrows the first captured
  /// exception.
  void wait();

  /// True once any task of the group has thrown.
  [[nodiscard]] bool poisoned() const { return failed_.load(std::memory_order_acquire); }

 private:
  void finish_one();
  void wait_no_throw() noexcept;

  ThreadPool* pool_;
  std::atomic<std::size_t> outstanding_{0};
  std::atomic<bool> failed_{false};
  std::mutex mu_;  ///< guards error_, pairs with done_cv_
  std::condition_variable done_cv_;
  std::exception_ptr error_;
};

}  // namespace fpopt
