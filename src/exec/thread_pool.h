// The shared work-queue execution layer (the "ExperimentEngine" substrate).
//
// One fixed set of worker threads drains a FIFO task queue. There is no work
// stealing — determinism comes from *where results land* (callers write into
// pre-sized slots indexed by task id), not from execution order, so a plain
// shared queue is enough and keeps the scheduling model easy to reason
// about.
//
// Nested parallelism is deadlock-free by construction: any thread that has
// to wait for tasks (TaskGroup::wait, parallel_for) cooperatively drains the
// queue via run_pending_task() instead of blocking, so a worker that spawns
// sub-tasks executes them itself when no other worker is free.
//
// Every executed task is timed (wall clock and, on POSIX, per-thread CPU
// time) into the pool's ExecStats counters — the raw material for bench
// drivers reporting scheduling efficiency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace xfa {

/// Cumulative per-task execution counters (monotone over a pool's life).
struct ExecStats {
  std::uint64_t tasks_executed = 0;
  double task_wall_seconds = 0;  ///< summed wall time across tasks
  double task_cpu_seconds = 0;   ///< summed per-thread CPU time (0 if unsupported)
};

/// `end - begin` clamped to zero when the clock stepped backwards. Thread
/// CPU-time clocks are not reliably monotone on suspended/migrated hosts;
/// an unclamped negative delta wraps the unsigned accounting by ~2^64 ns,
/// poisoning ExecStats forever. Used by ThreadPool's timing instrumentation;
/// exposed for direct unit testing.
constexpr std::uint64_t monotonic_delta_ns(std::uint64_t begin,
                                           std::uint64_t end) {
  return end >= begin ? end - begin : 0;
}

class ThreadPool {
 public:
  /// `threads` = 0 resolves to $XFA_THREADS, then hardware concurrency
  /// (minimum 1). A pool of size 1 still runs tasks on its single worker
  /// (plus any cooperatively-waiting caller).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  /// Enqueues a task. Tasks must not throw (the tree builds without
  /// exception recovery; contract violations abort via XFA_CHECK).
  void submit(std::function<void()> task);

  /// Runs one queued task on the calling thread, if any is pending.
  /// Returns false when the queue was empty. This is the cooperative-wait
  /// primitive: blocked waiters make progress instead of holding a thread.
  bool run_pending_task();

  /// Snapshot of the cumulative task counters.
  ExecStats stats() const;

 private:
  void worker_loop();
  /// Dequeued-task execution with timing instrumentation.
  void execute(std::function<void()> task);

  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;

  std::atomic<std::uint64_t> tasks_executed_{0};
  std::atomic<std::uint64_t> task_wall_ns_{0};
  std::atomic<std::uint64_t> task_cpu_ns_{0};
};

/// The process-wide pool every subsystem shares (model training, scenario
/// gathering, bench grids). Sized from $XFA_THREADS / hardware concurrency
/// on first use; resize_shared_pool() re-creates it (bench drivers honoring
/// --threads=N; only safe while no tasks are in flight).
ThreadPool& shared_pool();
void resize_shared_pool(std::size_t threads);

}  // namespace xfa
