// Fault-injection layer: FaultPlan semantics, deterministic chaos
// scheduling, the monitored node's crash immunity, the chaos actually
// reaching the channel, and the loud failure of a degenerate run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include "common/env.h"

#include "faults/injector.h"
#include "faults/plan.h"
#include "scenario/runner.h"

namespace xfa {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.node_count = 15;
  config.duration = 150;
  config.seed = 42;
  config.traffic.max_connections = 8;
  return config;
}

TEST(FaultPlan, DisabledByDefaultEnabledByPreset) {
  EXPECT_FALSE(FaultPlan{}.enabled());
  EXPECT_TRUE(benign_chaos().enabled());

  FaultPlan corruption_only;
  corruption_only.corruption_rate = 0.01;
  EXPECT_TRUE(corruption_only.enabled());

  // A rate without a duration (or vice versa) cannot fire.
  FaultPlan rate_without_duration;
  rate_without_duration.loss_burst_rate_per_s = 0.1;
  EXPECT_FALSE(rate_without_duration.enabled());
}

TEST(FaultPlan, CacheKeyCoversPlanOnlyWhenEnabled) {
  ScenarioConfig base = small_config();
  const std::string base_key = base.cache_key();

  // A default (disabled) plan must not perturb pre-fault cache keys, so
  // existing cached traces stay valid.
  ScenarioConfig with_default = small_config();
  with_default.faults = FaultPlan{};
  EXPECT_EQ(with_default.cache_key(), base_key);

  ScenarioConfig with_chaos = small_config();
  with_chaos.faults = benign_chaos();
  const std::string chaos_key = with_chaos.cache_key();
  EXPECT_NE(chaos_key, base_key);

  // Every knob is behaviour-relevant — including the fault seed.
  ScenarioConfig reseeded = with_chaos;
  reseeded.faults.fault_seed = 7;
  EXPECT_NE(reseeded.cache_key(), chaos_key);
  ScenarioConfig hotter = small_config();
  hotter.faults = benign_chaos(2.0);
  EXPECT_NE(hotter.cache_key(), chaos_key);
}

TEST(FaultInjector, SchedulesIdenticalChaosForIdenticalPlans) {
  // Long horizon + amplified preset so every Poisson mechanism has a
  // vanishing probability of drawing zero arrivals (crash expectation ~20).
  const FaultPlan plan = benign_chaos(5.0);
  constexpr SimTime kDuration = 2000;
  Simulator sim_a(7);
  const FaultInjector a(sim_a, plan, /*node_count=*/20, /*monitor_node=*/0,
                        kDuration);
  Simulator sim_b(7);
  const FaultInjector b(sim_b, plan, 20, 0, kDuration);
  EXPECT_EQ(a.scheduled().bursts, b.scheduled().bursts);
  EXPECT_EQ(a.scheduled().flaps, b.scheduled().flaps);
  EXPECT_EQ(a.scheduled().crashes, b.scheduled().crashes);
  EXPECT_GT(a.scheduled().bursts, 0u);
  EXPECT_GT(a.scheduled().flaps, 0u);
  EXPECT_GT(a.scheduled().crashes, 0u);

  FaultPlan reseeded = plan;
  reseeded.fault_seed = plan.fault_seed + 1;
  Simulator sim_c(7);
  const FaultInjector c(sim_c, reseeded, 20, 0, kDuration);
  EXPECT_NE(a.scheduled().bursts + a.scheduled().flaps + a.scheduled().crashes,
            0u);
  // A different fault seed draws a different timeline (arrival counts may
  // coincide for one mechanism, but not plausibly for all three).
  EXPECT_TRUE(a.scheduled().bursts != c.scheduled().bursts ||
              a.scheduled().flaps != c.scheduled().flaps ||
              a.scheduled().crashes != c.scheduled().crashes);
}

TEST(FaultInjector, MonitorNodeIsNeverCrashed) {
  FaultPlan plan;
  plan.node_crash_rate_per_s = 1.0;  // ~100 crashes over the run
  plan.node_crash_down_s = 50;       // long outages => overlap is common
  constexpr NodeId kMonitor = 2;
  Simulator sim(9);
  FaultInjector injector(sim, plan, /*node_count=*/5, kMonitor,
                         /*duration=*/100);
  ASSERT_GT(injector.scheduled().crashes, 0u);

  bool monitor_ever_down = false;
  bool other_ever_down = false;
  for (int t = 1; t <= 100; ++t) {
    sim.at(t, [&] {
      monitor_ever_down |= injector.node_down(kMonitor);
      for (NodeId n = 0; n < 5; ++n)
        if (n != kMonitor) other_ever_down |= injector.node_down(n);
    });
  }
  sim.run_until(100);
  EXPECT_FALSE(monitor_ever_down);
  EXPECT_TRUE(other_ever_down);
}

class FaultScenarioTest : public ::testing::Test {
 protected:
  // Force live simulation; cache hits would mask the injected chaos.
  void SetUp() override {
    setenv("XFA_NO_CACHE", "1", 1);
    refresh_env_for_testing();
  }
  void TearDown() override {
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
  }
};

TEST_F(FaultScenarioTest, ChaosReachesTheChannelAndAltersTheTrace) {
  const ScenarioConfig clean = small_config();
  const ScenarioResult baseline = run_scenario_checked(clean).value();

  ScenarioConfig faulty = small_config();
  faulty.faults = benign_chaos();
  const ScenarioResult chaotic = run_scenario_checked(faulty).value();

  const ChannelStats& stats = chaotic.summary.channel;
  EXPECT_GT(stats.fault_corrupted, 0u);
  EXPECT_GT(stats.fault_duplicates, 0u);
  // Flaps/bursts/crashes are Poisson; at least one mechanism must have
  // produced observable drops over 150 s of the canonical preset.
  EXPECT_GT(stats.fault_link_drops + stats.fault_burst_losses +
                stats.fault_suppressed_tx,
            0u);
  EXPECT_NE(chaotic.trace.rows, baseline.trace.rows);

  // The baseline run saw no fault machinery at all.
  const ChannelStats& clean_stats = baseline.summary.channel;
  EXPECT_EQ(clean_stats.fault_corrupted + clean_stats.fault_duplicates +
                clean_stats.fault_link_drops + clean_stats.fault_burst_losses +
                clean_stats.fault_suppressed_tx,
            0u);
}

TEST_F(FaultScenarioTest, DegenerateScenarioFailsOnceNamingTheKey) {
  // duration < sample_interval yields a trace with no samples for any seed.
  // The key names one seed's run, so the failure is reported at once.
  ScenarioConfig config = small_config();
  config.duration = 1;

  const Result<ScenarioResult> result = run_scenario_checked(config);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kDegenerateData);
  EXPECT_NE(result.status().message().find(config.cache_key()),
            std::string::npos)
      << result.status().message();
}

}  // namespace
}  // namespace xfa
