// Regression guard for the centralized-RNG determinism rule (tools/xfa_lint
// bans stray entropy sources): the same scenario config must reproduce the
// exact same trace, byte for byte, on every run.
#include <gtest/gtest.h>

#include <cstdlib>
#include <cstring>
#include <string>
#include "common/env.h"

#include "faults/plan.h"
#include "scenario/runner.h"

namespace xfa {
namespace {

/// Serializes every bit of a trace (times, feature rows, labels) so the
/// comparison is byte-exact, not within-epsilon.
std::string trace_bytes(const RawTrace& trace) {
  std::string bytes;
  const auto append = [&bytes](const void* data, std::size_t size) {
    bytes.append(static_cast<const char*>(data), size);
  };
  for (const SimTime t : trace.times) append(&t, sizeof(t));
  for (const auto& row : trace.rows)
    for (const double v : row) append(&v, sizeof(v));
  for (const int label : trace.labels) append(&label, sizeof(label));
  return bytes;
}

class DeterminismTest : public ::testing::Test {
 protected:
  // Force live simulation; a cache hit would make the comparison vacuous.
  void SetUp() override {
    setenv("XFA_NO_CACHE", "1", 1);
    refresh_env_for_testing();
  }
  void TearDown() override {
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
  }
};

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.node_count = 15;
  config.duration = 150;
  config.seed = 42;
  config.traffic.max_connections = 8;
  return config;
}

TEST_F(DeterminismTest, SameSeedReproducesByteIdenticalFeatureStream) {
  const ScenarioConfig config = small_config();
  const ScenarioResult first = run_scenario_checked(config).value();
  const ScenarioResult second = run_scenario_checked(config).value();

  ASSERT_EQ(first.trace.size(), second.trace.size());
  EXPECT_EQ(trace_bytes(first.trace), trace_bytes(second.trace));
  EXPECT_EQ(first.summary.scheduler_events, second.summary.scheduler_events);
  EXPECT_EQ(first.summary.data_delivered, second.summary.data_delivered);
}

TEST_F(DeterminismTest, AttackScenarioIsEquallyReproducible) {
  ScenarioConfig config = small_config();
  config.attacks = single_attack_sessions(AttackKind::Blackhole);
  const ScenarioResult first = run_scenario_checked(config).value();
  const ScenarioResult second = run_scenario_checked(config).value();
  EXPECT_EQ(trace_bytes(first.trace), trace_bytes(second.trace));
}

TEST_F(DeterminismTest, FaultPlanChaosIsByteDeterministic) {
  // The whole point of scheduling chaos from a dedicated seeded stream: the
  // same seed and the same FaultPlan must reproduce the exact same faulted
  // trace, byte for byte — including every burst, flap, crash, corrupted
  // frame and jittered delivery.
  ScenarioConfig config = small_config();
  config.faults = benign_chaos();
  const ScenarioResult first = run_scenario_checked(config).value();
  const ScenarioResult second = run_scenario_checked(config).value();
  EXPECT_EQ(trace_bytes(first.trace), trace_bytes(second.trace));
  EXPECT_EQ(first.summary.scheduler_events, second.summary.scheduler_events);
  EXPECT_EQ(first.summary.channel.fault_corrupted,
            second.summary.channel.fault_corrupted);
  EXPECT_EQ(first.summary.channel.fault_duplicates,
            second.summary.channel.fault_duplicates);

  // A different fault seed is a different scenario.
  config.faults.fault_seed += 1;
  const ScenarioResult reseeded = run_scenario_checked(config).value();
  EXPECT_NE(trace_bytes(first.trace), trace_bytes(reseeded.trace));

  // And the fault layer left the fault-free path untouched.
  const ScenarioResult clean = run_scenario_checked(small_config()).value();
  EXPECT_NE(trace_bytes(first.trace), trace_bytes(clean.trace));
}

TEST_F(DeterminismTest, DifferentSeedsDiverge) {
  ScenarioConfig config = small_config();
  const ScenarioResult first = run_scenario_checked(config).value();
  config.seed = 43;
  const ScenarioResult second = run_scenario_checked(config).value();
  EXPECT_NE(trace_bytes(first.trace), trace_bytes(second.trace));
}

}  // namespace
}  // namespace xfa
