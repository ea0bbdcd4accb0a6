// Unit tests: scenario config/cache-key discipline, labelling policies,
// trace cache round-trip, and small end-to-end scenario runs.
#include <gtest/gtest.h>

#include <cstdio>
#include "common/env.h"

#include "scenario/cache.h"
#include "scenario/pipeline.h"
#include "scenario/runner.h"

namespace xfa {
namespace {

ScenarioConfig small_config() {
  ScenarioConfig config;
  config.node_count = 15;
  config.duration = 200;
  config.seed = 5;
  config.traffic.max_connections = 10;
  return config;
}

TEST(ScenarioConfigTest, CacheKeyCoversBehaviourFields) {
  const ScenarioConfig base = small_config();
  EXPECT_EQ(base.cache_key(), small_config().cache_key());

  ScenarioConfig changed = base;
  changed.seed = 6;
  EXPECT_NE(changed.cache_key(), base.cache_key());
  changed = base;
  changed.routing = RoutingKind::Dsr;
  EXPECT_NE(changed.cache_key(), base.cache_key());
  changed = base;
  changed.transport = TransportKind::Tcp;
  EXPECT_NE(changed.cache_key(), base.cache_key());
  changed = base;
  changed.mobility_seed += 1;
  EXPECT_NE(changed.cache_key(), base.cache_key());
  changed = base;
  changed.traffic_seed += 1;
  EXPECT_NE(changed.cache_key(), base.cache_key());
  changed = base;
  changed.attacks = mixed_attacks();
  EXPECT_NE(changed.cache_key(), base.cache_key());
  changed = base;
  changed.attacks = single_attack_sessions(AttackKind::Blackhole);
  EXPECT_NE(changed.cache_key(), base.cache_key());
}

TEST(ScenarioConfigTest, ExtendedAttackKindsKeyedDistinctly) {
  ScenarioConfig base = small_config();
  base.attacks = single_attack_sessions(AttackKind::UpdateStorm);
  ScenarioConfig random_drop = small_config();
  random_drop.attacks = single_attack_sessions(AttackKind::RandomDrop);
  EXPECT_NE(base.cache_key(), random_drop.cache_key());
  ScenarioConfig other_probability = random_drop;
  other_probability.attacks[0].drop_probability = 0.9;
  EXPECT_NE(random_drop.cache_key(), other_probability.cache_key());
}

TEST(RunScenarioTest, UpdateStormAndRandomDropRun) {
  ScenarioConfig config = small_config();
  config.duration = 120;
  config.attacks = single_attack_sessions(AttackKind::UpdateStorm);
  config.attacks[0].schedule = ScheduleSpec::session_list({{30, 60}});
  const ScenarioResult storm = run_scenario_checked(config).value();
  EXPECT_EQ(storm.trace.size(), 24u);

  config.attacks = single_attack_sessions(AttackKind::RandomDrop);
  config.attacks[0].schedule = ScheduleSpec::session_list({{30, 60}});
  const ScenarioResult drop = run_scenario_checked(config).value();
  EXPECT_EQ(drop.trace.size(), 24u);
}

TEST(ScenarioConfigTest, MixedAttacksMatchPaperSetup) {
  const auto attacks = mixed_attacks();
  ASSERT_EQ(attacks.size(), 2u);
  EXPECT_EQ(attacks[0].kind, AttackKind::Blackhole);
  EXPECT_DOUBLE_EQ(attacks[0].schedule.start, 2500);
  EXPECT_EQ(attacks[1].kind, AttackKind::SelectiveDrop);
  EXPECT_DOUBLE_EQ(attacks[1].schedule.start, 5000);
  EXPECT_NE(attacks[0].attacker, attacks[1].attacker);
}

TEST(ScenarioConfigTest, SingleAttackSessionsMatchFigure5) {
  const auto attacks = single_attack_sessions(AttackKind::SelectiveDrop);
  ASSERT_EQ(attacks.size(), 1u);
  const auto& sessions = attacks[0].schedule.sessions;
  ASSERT_EQ(sessions.size(), 3u);
  EXPECT_DOUBLE_EQ(sessions[0].first, 2500);
  EXPECT_DOUBLE_EQ(sessions[1].first, 5000);
  EXPECT_DOUBLE_EQ(sessions[2].first, 7500);
  for (const auto& [start, duration] : sessions)
    EXPECT_DOUBLE_EQ(duration, 100);
}

TEST(LabelsTest, OnsetOnwardsLabelsEverythingAfterFirstStart) {
  RawTrace trace;
  for (int i = 1; i <= 10; ++i) trace.times.push_back(i * 100.0);
  trace.rows.assign(10, std::vector<double>(3, 0.0));
  ScenarioConfig config;
  config.attacks = single_attack_sessions(AttackKind::Blackhole);
  config.attacks[0].schedule =
      ScheduleSpec::session_list({{450, 100}});
  apply_labels(trace, config, LabelPolicy::OnsetOnwards);
  for (std::size_t i = 0; i < 10; ++i)
    EXPECT_EQ(trace.labels[i], trace.times[i] > 450 ? 1 : 0) << i;
}

TEST(LabelsTest, ActiveSessionsLabelsOnlyOverlappingWindows) {
  RawTrace trace;
  for (int i = 1; i <= 10; ++i) trace.times.push_back(i * 100.0);
  trace.rows.assign(10, std::vector<double>(3, 0.0));
  ScenarioConfig config;
  config.sample_interval = 100;
  config.attacks = single_attack_sessions(AttackKind::Blackhole);
  config.attacks[0].schedule = ScheduleSpec::session_list({{450, 100}});
  apply_labels(trace, config, LabelPolicy::ActiveSessions);
  // Session [450, 550): windows (400,500] and (500,600] overlap.
  const std::vector<int> expected = {0, 0, 0, 0, 1, 1, 0, 0, 0, 0};
  EXPECT_EQ(trace.labels, expected);
}

TEST(LabelsTest, NoAttacksMeansAllNormal) {
  RawTrace trace;
  trace.times = {5, 10};
  trace.rows.assign(2, std::vector<double>(3, 0.0));
  apply_labels(trace, small_config(), LabelPolicy::OnsetOnwards);
  EXPECT_EQ(trace.labels, (std::vector<int>{0, 0}));
}

TEST(TraceCacheTest, RoundTrip) {
  const std::string dir =
      ::testing::TempDir() + "/xfa_cache_test";
  TraceCache cache(dir);
  if (!cache.enabled()) GTEST_SKIP() << "cache disabled by environment";

  ScenarioResult result;
  result.trace.times = {5, 10, 15};
  result.trace.rows = {{1, 2}, {3, 4}, {5, 6}};
  result.summary.data_originated = 42;
  result.summary.packet_delivery_ratio = 0.9;
  result.summary.channel.transmissions = 7;
  cache.store("some-key", result);

  const auto loaded = cache.load("some-key");
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->trace.times, result.trace.times);
  EXPECT_EQ(loaded->trace.rows, result.trace.rows);
  EXPECT_EQ(loaded->summary.data_originated, 42u);
  EXPECT_DOUBLE_EQ(loaded->summary.packet_delivery_ratio, 0.9);
  EXPECT_EQ(loaded->summary.channel.transmissions, 7u);

  EXPECT_FALSE(cache.load("different-key").has_value());
}

TEST(RunScenarioTest, SmallRunProducesSaneTrace) {
  const ScenarioConfig config = small_config();
  const ScenarioResult result = run_scenario_checked(config).value();
  const std::size_t expected_samples =
      static_cast<std::size_t>(config.duration / config.sample_interval);
  EXPECT_EQ(result.trace.size(), expected_samples);
  EXPECT_EQ(result.trace.rows.front().size(),
            FeatureSchema::standard().size());
  EXPECT_EQ(result.trace.labels.size(), expected_samples);
  // Normal run: all labels 0, some traffic flowed.
  for (const int label : result.trace.labels) EXPECT_EQ(label, 0);
  EXPECT_GT(result.summary.data_originated, 0u);
  EXPECT_GT(result.summary.packet_delivery_ratio, 0.3);
  EXPECT_GT(result.summary.monitor_audit_packets, 0u);
}

TEST(RunScenarioTest, DeterministicAcrossRuns) {
  ScenarioConfig config = small_config();
  config.seed = 99;  // avoid cache interference from other tests
  setenv("XFA_NO_CACHE", "1", 1);
  refresh_env_for_testing();
  const ScenarioResult a = run_scenario_checked(config).value();
  const ScenarioResult b = run_scenario_checked(config).value();
  unsetenv("XFA_NO_CACHE");
  refresh_env_for_testing();
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i)
    EXPECT_EQ(a.trace.rows[i], b.trace.rows[i]) << "row " << i;
  EXPECT_EQ(a.summary.scheduler_events, b.summary.scheduler_events);
}

TEST(RunScenarioTest, AttackTraceGetsPositiveLabels) {
  ScenarioConfig config = small_config();
  config.attacks = mixed_attacks(/*session=*/20);
  config.attacks[0].schedule = ScheduleSpec::periodic_from(50, 20);
  config.attacks[1].schedule = ScheduleSpec::periodic_from(100, 20);
  const ScenarioResult result = run_scenario_checked(config).value();
  int positives = 0;
  for (const int label : result.trace.labels) positives += label;
  EXPECT_GT(positives, 0);
}

TEST(RunScenarioTest, MonitorNodeIsConfigurable) {
  ScenarioConfig config = small_config();
  config.duration = 100;
  config.monitor_node = 5;
  const ScenarioResult result = run_scenario_checked(config).value();
  EXPECT_GT(result.summary.monitor_audit_packets, 0u);
}

TEST(RunScenarioTest, TcpScenarioProducesAckTraffic) {
  ScenarioConfig config = small_config();
  config.transport = TransportKind::Tcp;
  config.duration = 300;
  const ScenarioResult result = run_scenario_checked(config).value();
  EXPECT_GT(result.summary.data_originated, 0u);
  // ACKs flow back, so delivered counts include both directions; the ratio
  // stays meaningful.
  EXPECT_GT(result.summary.packet_delivery_ratio, 0.3);
}

TEST(RunScenarioTest, SummaryChannelCountsAreConsistent) {
  const ScenarioResult result = run_scenario_checked(small_config()).value();
  const ChannelStats& channel = result.summary.channel;
  EXPECT_GT(channel.transmissions, 0u);
  EXPECT_GE(channel.deliveries + channel.random_losses,
            channel.transmissions)
      << "broadcasts reach multiple receivers";
}

// Scale smoke: a 500-node AODV/UDP world at the paper's spatial density
// (~50 nodes per 1000x1000 m, so a 3162 m field edge) must actually run —
// events dispatched, radio traffic delivered, the monitor audited. The
// cache is off so the world is simulated on every run.
TEST(RunScenarioTest, FiveHundredNodeWorldRunsAtConstantDensity) {
  ScenarioConfig config;
  config.node_count = 500;
  config.duration = 20;
  config.seed = 5100;
  config.mobility.field_width = 3162;
  config.mobility.field_height = 3162;
  config.traffic.max_connections = 60;
  setenv("XFA_NO_CACHE", "1", 1);
  refresh_env_for_testing();
  const ScenarioResult result = run_scenario_checked(config).value();
  unsetenv("XFA_NO_CACHE");
  refresh_env_for_testing();
  EXPECT_GT(result.summary.scheduler_events, 0u);
  EXPECT_GT(result.summary.channel.deliveries, 0u);
  EXPECT_GT(result.summary.monitor_audit_packets, 0u);
}

TEST(ScaledOptionsTest, FastModeScalesSchedules) {
  ExperimentOptions options = paper_mixed_options();
  options.duration = 8000;
  const ExperimentOptions fast = scaled(options);
  EXPECT_DOUBLE_EQ(fast.duration, 2000);
  EXPECT_DOUBLE_EQ(fast.attacks[0].schedule.start, 625);
  EXPECT_DOUBLE_EQ(fast.attacks[0].schedule.duration, 50);
}

TEST(PipelineTest, PaperScenarioAndClassifierInventories) {
  EXPECT_EQ(paper_scenarios().size(), 4u);
  EXPECT_EQ(paper_classifiers().size(), 3u);
  EXPECT_EQ(paper_classifiers()[0].name, "C4.5");
}

}  // namespace
}  // namespace xfa
