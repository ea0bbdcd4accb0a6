// Deadline-supervised execution (exec/deadline.h): the thread-local
// DeadlineGuard and its nesting, its scoping to one pool task, the
// cooperative cancellation poll at the simulation scheduler's dispatch
// boundary, and the scenario runner's deadline handling: an overrun, whichever
// guard set it, fails with kDeadlineExceeded and stores nothing, and a
// generous budget changes no bytes.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <limits>
#include <thread>

#include "common/env.h"
#include "exec/deadline.h"
#include "exec/thread_pool.h"
#include "scenario/cache.h"
#include "scenario/runner.h"
#include "sim/scheduler.h"

namespace xfa {
namespace {

using Clock = std::chrono::steady_clock;

/// Busy-waits until the current thread's deadline fires (bounded so a broken
/// deadline fails the test instead of hanging it).
bool spin_until_exceeded(std::chrono::seconds limit = std::chrono::seconds(10)) {
  const auto start = Clock::now();
  while (!deadline_exceeded()) {
    if (Clock::now() - start > limit) return false;
    std::this_thread::yield();
  }
  return true;
}

TEST(MonotonicDeltaTest, ClampsBackwardClockToZero) {
  EXPECT_EQ(monotonic_delta_ns(5, 10), 10u - 5u);
  EXPECT_EQ(monotonic_delta_ns(7, 7), 0u);
  // A backward step would wrap unsigned subtraction by ~2^64; the clamp
  // reports zero instead.
  EXPECT_EQ(monotonic_delta_ns(10, 5), 0u);
  EXPECT_EQ(monotonic_delta_ns(~0ull, 0), 0u);
}

TEST(DeadlineGuardTest, NonPositiveBudgetInstallsNothing) {
  EXPECT_FALSE(deadline_exceeded());
  DeadlineGuard zero(0);
  DeadlineGuard negative(-1.5);
  EXPECT_FALSE(zero.active());
  EXPECT_FALSE(negative.active());
  EXPECT_FALSE(zero.exceeded());
  EXPECT_FALSE(deadline_exceeded());
}

TEST(DeadlineGuardTest, FiresAfterBudgetElapses) {
  DeadlineGuard guard(0.02);
  ASSERT_TRUE(guard.active());
  EXPECT_TRUE(spin_until_exceeded());
  EXPECT_TRUE(guard.exceeded());
}

TEST(DeadlineGuardTest, GenerousBudgetDoesNotFire) {
  // Budgets past the clock's range, up to infinity, must not wrap into a
  // past deadline.
  for (const double seconds : {300.0, 1e12, 1e300,
                               std::numeric_limits<double>::infinity()}) {
    DeadlineGuard guard(seconds);
    ASSERT_TRUE(guard.active()) << seconds;
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    EXPECT_FALSE(guard.exceeded()) << seconds;
    EXPECT_FALSE(deadline_exceeded()) << seconds;
  }
}

TEST(DeadlineGuardTest, NestedGuardRestoresOuterToken) {
  DeadlineGuard outer(300.0);
  {
    DeadlineGuard inner(0.02);
    EXPECT_TRUE(spin_until_exceeded());
    EXPECT_TRUE(inner.exceeded());
    // A disabled guard installs nothing: the inner deadline stays in force.
    DeadlineGuard disabled(0);
    EXPECT_TRUE(deadline_exceeded());
  }
  // The inner guard unwound: the thread is governed by the outer deadline
  // again, which has not fired.
  EXPECT_FALSE(deadline_exceeded());
  EXPECT_FALSE(outer.exceeded());
}

TEST(DeadlineGuardTest, NestedGuardCannotExtendOuterDeadline) {
  DeadlineGuard outer(0.02);
  DeadlineGuard inner(300.0);
  EXPECT_TRUE(spin_until_exceeded());
  EXPECT_TRUE(outer.exceeded());
  EXPECT_FALSE(inner.exceeded());
}

/// A deadline belongs to the thread that installed it for the guard's scope
/// only: once a pool task's guard unwinds, the next task on the same worker
/// runs unsupervised.
TEST(DeadlineGuardTest, GuardDoesNotLeakIntoNextPoolTask) {
  ThreadPool pool(1);
  std::promise<std::thread::id> a_worker;
  std::promise<std::thread::id> b_worker;
  bool a_fired = false;  // each flag is published by its task's set_value
  bool b_exceeded = true;
  pool.submit([&] {
    DeadlineGuard guard(0.001);
    a_fired = spin_until_exceeded();
    a_worker.set_value(std::this_thread::get_id());
  });
  pool.submit([&] {
    b_exceeded = deadline_exceeded();
    b_worker.set_value(std::this_thread::get_id());
  });
  const std::thread::id a_id = a_worker.get_future().get();
  const std::thread::id b_id = b_worker.get_future().get();
  ASSERT_EQ(a_id, b_id) << "both tasks must run on the pool's one worker";
  EXPECT_TRUE(a_fired);
  EXPECT_FALSE(b_exceeded);
}

/// The simulation scheduler polls the thread's deadline every ~1024
/// dispatches: with a pre-fired guard installed, run() must stop at the
/// first poll boundary instead of draining the queue.
TEST(SchedulerDeadlineTest, RunStopsAtPollBoundaryWhenDeadlineFired) {
  Scheduler scheduler;
  for (int i = 0; i < 5000; ++i)
    scheduler.schedule_at(static_cast<SimTime>(i), [] {});

  DeadlineGuard guard(0.001);
  ASSERT_TRUE(spin_until_exceeded());
  scheduler.run();
  EXPECT_GT(scheduler.pending(), 0u);
  EXPECT_LT(scheduler.dispatched(), 5000u);
}

TEST(SchedulerDeadlineTest, RunUntilUnaffectedWithoutGuard) {
  Scheduler scheduler;
  int fired = 0;
  for (int i = 0; i < 3000; ++i)
    scheduler.schedule_at(static_cast<SimTime>(i), [&fired] { ++fired; });
  scheduler.run_until(3000);
  EXPECT_EQ(fired, 3000);
  EXPECT_EQ(scheduler.pending(), 0u);
}

// --- Scenario-level deadline supervision ----------------------------------

class ScenarioDeadlineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("XFA_NO_CACHE", "1", 1);
    refresh_env_for_testing();
  }
  void TearDown() override {
    unsetenv("XFA_NO_CACHE");
    unsetenv("XFA_TRACE_DEADLINE_MS");
    unsetenv("XFA_CACHE_DIR");
    refresh_env_for_testing();
  }

  static ScenarioConfig small_config() {
    ScenarioConfig config;
    config.node_count = 15;
    config.duration = 150;
    config.seed = 42;
    config.traffic.max_connections = 8;
    return config;
  }
};

TEST_F(ScenarioDeadlineTest, ImpossibleBudgetFailsSoft) {
  // Deadline budgets are wall-clock, so this test must not sit anywhere
  // near the boundary: a scenario whose simulation takes orders of
  // magnitude longer than the 1 ms budget.
  setenv("XFA_TRACE_DEADLINE_MS", "1", 1);
  refresh_env_for_testing();
  ScenarioConfig config = small_config();
  config.node_count = 30;
  config.duration = 600;
  const Result<ScenarioResult> result = run_scenario_checked(config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded);
}

TEST_F(ScenarioDeadlineTest, GenerousBudgetMatchesUnsupervisedRun) {
  const Result<ScenarioResult> baseline =
      run_scenario_checked(small_config());
  ASSERT_TRUE(baseline.ok()) << baseline.status().to_string();

  setenv("XFA_TRACE_DEADLINE_MS", "600000", 1);
  refresh_env_for_testing();
  const Result<ScenarioResult> supervised =
      run_scenario_checked(small_config());
  ASSERT_TRUE(supervised.ok()) << supervised.status().to_string();
  EXPECT_EQ(supervised->trace.times, baseline->trace.times);
  EXPECT_EQ(supervised->trace.rows, baseline->trace.rows);
}

/// A run cut short by a deadline the caller holds is an overrun too, not a
/// trace with no samples: it fails with kDeadlineExceeded even with
/// XFA_TRACE_DEADLINE_MS unset, and nothing reaches the cache.
TEST_F(ScenarioDeadlineTest, OuterGuardOverrunIsReportedAndNotStored) {
  const std::string dir =
      ::testing::TempDir() + "xfa_deadline_outer_guard_cache";
  std::filesystem::remove_all(dir);
  unsetenv("XFA_NO_CACHE");
  setenv("XFA_CACHE_DIR", dir.c_str(), 1);
  refresh_env_for_testing();
  const ScenarioConfig config = small_config();

  DeadlineGuard outer(0.001);
  ASSERT_TRUE(spin_until_exceeded());
  const Result<ScenarioResult> result = run_scenario_checked(config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDeadlineExceeded)
      << result.status().to_string();
  EXPECT_NE(result.status().message().find(config.cache_key()),
            std::string::npos)
      << result.status().to_string();
  EXPECT_FALSE(std::filesystem::exists(
      TraceCache(dir).artifact_path(config.cache_key())));
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xfa
