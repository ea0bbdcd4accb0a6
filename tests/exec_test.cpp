// The execution layer: ThreadPool scheduling/timing, TaskGroup structured
// cancellation, parallel_for coverage, SingleFlight deduplication, and the
// nested-parallelism (cooperative draining) guarantee.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "exec/parallel_for.h"
#include "exec/single_flight.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"

namespace xfa {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  std::atomic<int> counter{0};
  TaskGroup group(pool);
  for (int i = 0; i < 100; ++i)
    group.submit([&counter] {
      counter.fetch_add(1);
      return Status::Ok();
    });
  EXPECT_TRUE(group.wait().ok());
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, ZeroResolvesToAtLeastOneWorker) {
  ThreadPool pool(0);
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, StatsCountExecutedTasks) {
  ThreadPool pool(1);
  const ExecStats before = pool.stats();
  TaskGroup group(pool);
  for (int i = 0; i < 10; ++i)
    group.submit([] {
      // Touch the clock so wall time is measurably non-zero in aggregate.
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      return Status::Ok();
    });
  EXPECT_TRUE(group.wait().ok());
  // wait() can return a beat before the pool's post-task instrumentation
  // lands for the last task, so poll the counters up to their target.
  ExecStats after = pool.stats();
  while (after.tasks_executed - before.tasks_executed < 10u) {
    std::this_thread::yield();
    after = pool.stats();
  }
  EXPECT_EQ(after.tasks_executed - before.tasks_executed, 10u);
  EXPECT_GT(after.task_wall_seconds, before.task_wall_seconds);
}

TEST(ThreadPool, RunPendingTaskDrainsQueue) {
  // A pool whose single worker is blocked: the caller can still make
  // progress by draining the queue cooperatively.
  ThreadPool pool(1);
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::atomic<bool> parked{false};
  pool.submit([&parked, gate] {  // parks the only worker
    parked = true;
    gate.wait();
  });
  while (!parked.load()) std::this_thread::yield();
  std::atomic<bool> ran{false};
  pool.submit([&ran] { ran = true; });
  while (pool.run_pending_task()) {
  }
  EXPECT_TRUE(ran.load());
  release.set_value();
}

TEST(ThreadPool, DestructorRunsRemainingQueue) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(1);
    for (int i = 0; i < 20; ++i)
      pool.submit([&counter] { counter.fetch_add(1); });
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(SharedPool, ResizeChangesWorkerCount) {
  resize_shared_pool(3);
  EXPECT_EQ(shared_pool().size(), 3u);
  resize_shared_pool(1);
  EXPECT_EQ(shared_pool().size(), 1u);
}

TEST(TaskGroup, PropagatesFirstError) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  for (int i = 0; i < 8; ++i)
    group.submit([i] {
      if (i == 3) return Status{StatusCode::kDegenerateData, "task 3 failed"};
      return Status::Ok();
    });
  const Status status = group.wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kDegenerateData);
  EXPECT_EQ(status.message(), "task 3 failed");
}

TEST(TaskGroup, CancellationSkipsNotYetStartedTasks) {
  // One worker + FIFO queue makes the skip deterministic: the first task
  // fails while the rest are still queued, so none of them may run.
  ThreadPool pool(1);
  std::promise<void> park;
  std::shared_future<void> gate = park.get_future().share();
  std::atomic<bool> parked{false};
  pool.submit([&parked, gate] {  // hold the worker...
    parked = true;
    gate.wait();
  });
  while (!parked.load()) std::this_thread::yield();
  TaskGroup group(pool);
  std::atomic<int> ran{0};
  group.submit([] { return Status{StatusCode::kIoError, "boom"}; });
  for (int i = 0; i < 50; ++i)
    group.submit([&ran] {
      ran.fetch_add(1);
      return Status::Ok();
    });
  // ...run the failing task here, while the worker is still parked: the
  // queue is FIFO, so it is deterministically the head.
  EXPECT_TRUE(pool.run_pending_task());
  park.set_value();
  const Status status = group.wait();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(ran.load(), 0) << "cancelled tasks must never run";
  EXPECT_FALSE(group.cancelled()) << "wait() resets the group";
}

TEST(TaskGroup, DropsSubmissionsAfterFailure) {
  ThreadPool pool(1);
  TaskGroup group(pool);
  group.submit([] { return Status{StatusCode::kIoError, "early"}; });
  // Let the failure land before the late submission.
  while (!group.cancelled()) pool.run_pending_task();
  std::atomic<bool> ran{false};
  group.submit([&ran] {
    ran = true;
    return Status::Ok();
  });
  EXPECT_FALSE(group.wait().ok());
  EXPECT_FALSE(ran.load());
}

TEST(TaskGroup, ReusableAfterWait) {
  ThreadPool pool(2);
  TaskGroup group(pool);
  group.submit([] { return Status{StatusCode::kIoError, "first batch"}; });
  EXPECT_FALSE(group.wait().ok());
  std::atomic<int> ran{0};
  group.submit([&ran] {
    ran.fetch_add(1);
    return Status::Ok();
  });
  EXPECT_TRUE(group.wait().ok());
  EXPECT_EQ(ran.load(), 1);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1000;
  std::vector<std::atomic<int>> hits(kN);
  parallel_for(pool, kN, [&hits](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, HandlesEdgeSizes) {
  ThreadPool pool(2);
  int zero_calls = 0;
  parallel_for(pool, 0, [&zero_calls](std::size_t) { ++zero_calls; });
  EXPECT_EQ(zero_calls, 0);
  std::size_t seen = 99;
  parallel_for(pool, 1, [&seen](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ParallelFor, NestedInsidePoolTasksDoesNotDeadlock) {
  // Every outer iteration opens its own inner parallel_for on the same
  // pool. With blocking waits this deadlocks a small pool; cooperative
  // draining must complete it.
  ThreadPool pool(2);
  std::atomic<int> inner_total{0};
  parallel_for(pool, 8, [&pool, &inner_total](std::size_t) {
    parallel_for(pool, 8,
                 [&inner_total](std::size_t) { inner_total.fetch_add(1); });
  });
  EXPECT_EQ(inner_total.load(), 64);
}

TEST(SingleFlight, ConcurrentCallersShareOneExecution) {
  SingleFlight<int> flight;
  ThreadPool pool(4);
  std::atomic<int> executions{0};
  std::atomic<int> sum{0};
  TaskGroup group(pool);
  for (int i = 0; i < 16; ++i)
    group.submit([&flight, &executions, &sum] {
      const int value = flight.run("key", [&executions] {
        executions.fetch_add(1);
        // Stay in flight long enough for followers to pile up.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return 7;
      });
      sum.fetch_add(value);
      return Status::Ok();
    });
  EXPECT_TRUE(group.wait().ok());
  EXPECT_EQ(sum.load(), 16 * 7);
  // Cooperative draining means a waiter can occasionally start a fresh
  // flight after the leader finished, but never one per caller.
  EXPECT_LT(executions.load(), 16);
}

TEST(SingleFlight, SequentialCallsExecuteEachTime) {
  SingleFlight<int> flight;
  int executions = 0;
  EXPECT_EQ(flight.run("key", [&executions] { return ++executions; }), 1);
  EXPECT_EQ(flight.run("key", [&executions] { return ++executions; }), 2);
}

TEST(SingleFlight, DistinctKeysDoNotShare) {
  SingleFlight<std::string> flight;
  EXPECT_EQ(flight.run("a", [] { return std::string("va"); }), "va");
  EXPECT_EQ(flight.run("b", [] { return std::string("vb"); }), "vb");
}

}  // namespace
}  // namespace xfa
