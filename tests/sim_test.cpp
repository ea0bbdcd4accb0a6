// Unit tests: discrete-event scheduler, simulator facade, RNG.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "sim/rng.h"
#include "sim/scheduler.h"
#include "sim/simulator.h"

namespace xfa {
namespace {

TEST(Scheduler, DispatchesInTimeOrder) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(3.0, [&] { order.push_back(3); });
  scheduler.schedule_at(1.0, [&] { order.push_back(1); });
  scheduler.schedule_at(2.0, [&] { order.push_back(2); });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Scheduler, SameTimeEventsAreFifo) {
  Scheduler scheduler;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i)
    scheduler.schedule_at(1.0, [&order, i] { order.push_back(i); });
  scheduler.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<size_t>(i)], i);
}

TEST(Scheduler, ClockAdvancesToEventTime) {
  Scheduler scheduler;
  double seen = -1;
  scheduler.schedule_at(5.5, [&] { seen = scheduler.now(); });
  scheduler.run();
  EXPECT_DOUBLE_EQ(seen, 5.5);
  EXPECT_DOUBLE_EQ(scheduler.now(), 5.5);
}

TEST(Scheduler, RunUntilStopsAndSetsClock) {
  Scheduler scheduler;
  int fired = 0;
  scheduler.schedule_at(1.0, [&] { ++fired; });
  scheduler.schedule_at(10.0, [&] { ++fired; });
  scheduler.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(scheduler.now(), 5.0);
  EXPECT_EQ(scheduler.pending(), 1u);
}

TEST(Scheduler, CancelPreventsDispatch) {
  Scheduler scheduler;
  int fired = 0;
  const EventId id = scheduler.schedule_at(1.0, [&] { ++fired; });
  EXPECT_TRUE(scheduler.cancel(id));
  EXPECT_FALSE(scheduler.cancel(id));  // double cancel is a no-op
  scheduler.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, CancelOneOfSeveral) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(1.0, [&] { order.push_back(1); });
  const EventId id = scheduler.schedule_at(2.0, [&] { order.push_back(2); });
  scheduler.schedule_at(3.0, [&] { order.push_back(3); });
  scheduler.cancel(id);
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(Scheduler, EventsCanScheduleEvents) {
  Scheduler scheduler;
  std::vector<double> times;
  scheduler.schedule_at(1.0, [&] {
    times.push_back(scheduler.now());
    scheduler.schedule_in(1.0, [&] { times.push_back(scheduler.now()); });
  });
  scheduler.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[1], 2.0);
}

TEST(Scheduler, RunUntilIncludesBoundaryEvents) {
  Scheduler scheduler;
  int fired = 0;
  scheduler.schedule_at(5.0, [&] { ++fired; });
  scheduler.run_until(5.0);  // events at exactly `until` fire
  EXPECT_EQ(fired, 1);
}

TEST(Scheduler, CancelInsideCallback) {
  Scheduler scheduler;
  int fired = 0;
  EventId later = 0;
  scheduler.schedule_at(1.0, [&] { scheduler.cancel(later); });
  later = scheduler.schedule_at(2.0, [&] { ++fired; });
  scheduler.run();
  EXPECT_EQ(fired, 0);
}

TEST(Scheduler, ScheduleAtCurrentTimeRunsThisPass) {
  Scheduler scheduler;
  std::vector<int> order;
  scheduler.schedule_at(1.0, [&] {
    order.push_back(1);
    scheduler.schedule_at(scheduler.now(), [&] { order.push_back(2); });
  });
  scheduler.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Scheduler, DispatchedCounterCounts) {
  Scheduler scheduler;
  for (int i = 0; i < 5; ++i) scheduler.schedule_at(i, [] {});
  scheduler.run();
  EXPECT_EQ(scheduler.dispatched(), 5u);
}

TEST(PeriodicTimerTest, FiresAtInterval) {
  Simulator sim(1);
  std::vector<double> fires;
  PeriodicTimer timer(sim, 2.0, [&] { fires.push_back(sim.now()); });
  timer.start();
  sim.run_until(9.0);
  ASSERT_EQ(fires.size(), 4u);
  EXPECT_DOUBLE_EQ(fires[0], 2.0);
  EXPECT_DOUBLE_EQ(fires[3], 8.0);
}

TEST(PeriodicTimerTest, InitialDelayOverride) {
  Simulator sim(1);
  std::vector<double> fires;
  PeriodicTimer timer(sim, 5.0, [&] { fires.push_back(sim.now()); });
  timer.start(0.5);
  sim.run_until(11.0);
  ASSERT_EQ(fires.size(), 3u);
  EXPECT_DOUBLE_EQ(fires[0], 0.5);
  EXPECT_DOUBLE_EQ(fires[1], 5.5);
}

TEST(PeriodicTimerTest, StopHalts) {
  Simulator sim(1);
  int fires = 0;
  PeriodicTimer timer(sim, 1.0, [&] {
    if (++fires == 3) timer.stop();
  });
  timer.start();
  sim.run_until(100.0);
  EXPECT_EQ(fires, 3);
  EXPECT_FALSE(timer.running());
}

TEST(PeriodicTimerTest, DestructionCancels) {
  Simulator sim(1);
  int fires = 0;
  {
    PeriodicTimer timer(sim, 1.0, [&] { ++fires; });
    timer.start();
    sim.run_until(2.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(fires, 2);
}

TEST(RngTest, DeterministicForEqualSeeds) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (a() == b()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRangeRespected) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(5.0, 9.0);
    EXPECT_GE(u, 5.0);
    EXPECT_LT(u, 9.0);
  }
}

TEST(RngTest, UniformIntCoversAllValues) {
  Rng rng(7);
  std::vector<int> counts(6, 0);
  for (int i = 0; i < 6000; ++i) ++counts[rng.uniform_int(6)];
  for (const int c : counts) {
    EXPECT_GT(c, 800);
    EXPECT_LT(c, 1200);
  }
}

// uniform_int accepts a draw up to max() - n before it computes the rejection
// limit. Every such draw is below the limit too, so the accepted values and
// the number of raw draws consumed must match the plain rejection loop,
// including for the bounds where the limit rejects almost half the draws.
TEST(RngTest, UniformIntStreamUnchanged) {
  const auto rejection_loop = [](Rng& rng, std::uint64_t n) {
    const std::uint64_t limit = Rng::max() - Rng::max() % n;
    std::uint64_t v;
    do {
      v = rng();
    } while (v >= limit);
    return v % n;
  };
  constexpr std::uint64_t kBounds[] = {
      1, 2, 3, 7, (1ULL << 32) + 1, 1ULL << 63, (1ULL << 63) + 1, ~0ULL};
  for (const std::uint64_t n : kBounds) {
    SCOPED_TRACE(n);
    Rng rng(n), reference(n);
    for (int i = 0; i < 100000; ++i) {
      ASSERT_EQ(rng.uniform_int(n), rejection_loop(reference, n));
    }
    for (int i = 0; i < 4; ++i) EXPECT_EQ(rng(), reference());
  }
}

TEST(RngTest, ExponentialHasRequestedMean) {
  Rng rng(7);
  double sum = 0;
  constexpr int kSamples = 50000;
  for (int i = 0; i < kSamples; ++i) sum += rng.exponential(4.0);
  EXPECT_NEAR(sum / kSamples, 4.0, 0.15);
}

TEST(RngTest, ForkProducesIndependentStream) {
  Rng parent(9);
  Rng child = parent.fork();
  // The child stream should not simply replay the parent stream.
  Rng parent_copy(9);
  (void)parent_copy.fork();
  int equal = 0;
  for (int i = 0; i < 100; ++i)
    if (child() == parent()) ++equal;
  EXPECT_LT(equal, 3);
}

TEST(RngTest, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(SimulatorTest, ForkedRngsAreReproducible) {
  Simulator a(42), b(42);
  Rng ra = a.fork_rng(), rb = b.fork_rng();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(ra(), rb());
}

TEST(SimulatorTest, AfterSchedulesRelative) {
  Simulator sim(1);
  double fired_at = -1;
  sim.at(3.0, [&] { sim.after(2.0, [&] { fired_at = sim.now(); }); });
  sim.run();
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

}  // namespace
}  // namespace xfa
