// The element-graph hard constraint, executed: every scenario that used to
// be wired by hand in C++ must produce the byte-identical trace when it is
// instead loaded from an examples/scenarios/*.scn file — same RNG stream
// assignment, same construction order — at pool sizes 1 and 8. Identity is
// checked on the serialized trace body (scenario/trace_serial.h), the same
// bytes the trace cache persists behind the key.
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "common/env.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "scenario/config.h"
#include "scenario/graph/parse.h"
#include "scenario/runner.h"
#include "scenario/trace_serial.h"

namespace xfa {
namespace {

std::string scn_path(const std::string& name) {
  return std::string(XFA_SCN_DIR) + "/" + name;
}

/// The smoke plan's attack-trace config (bench/smoke.cpp: base seed 9100,
/// abnormal trace i=0 => seed 9200, 800 s, mixed intrusion with onsets
/// pulled forward to 200 s and 400 s).
ScenarioConfig smoke_attack_config(RoutingKind routing,
                                   TransportKind transport) {
  ScenarioConfig config;
  config.routing = routing;
  config.transport = transport;
  config.duration = 800;
  config.seed = 9200;
  config.attacks = mixed_attacks(/*session=*/100);
  config.attacks[0].schedule.start = 200;
  config.attacks[1].schedule.start = 400;
  return config;
}

/// The fig1 plan's first abnormal trace under XFA_FAST (pipeline.cpp
/// scaled(): everything x0.25 — 2500 s, onsets 625/1250, 50 s sessions).
ScenarioConfig fig1_fast_attack_config() {
  ScenarioConfig config;
  config.duration = 2500;
  config.seed = 1100;
  config.attacks = mixed_attacks(/*session=*/50);
  config.attacks[0].schedule.start = 625;
  config.attacks[1].schedule.start = 1250;
  return config;
}

class ScenarioEquivalenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Equivalence must hold on genuinely fresh simulations: disable the
    // trace cache so both paths run the full builder.
    setenv("XFA_NO_CACHE", "1", 1);
    refresh_env_for_testing();
  }
  void TearDown() override {
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
    resize_shared_pool(1);
  }

  /// Runs `config` through the checked runner on the shared pool (the same
  /// submission path gather_experiment uses) and returns the serialized
  /// trace payload.
  static std::string trace_payload(const ScenarioConfig& config) {
    Result<ScenarioResult> outcome =
        Status{StatusCode::kRetryable, "never ran"};
    TaskGroup group(shared_pool());
    group.submit([&outcome, &config] {
      outcome = run_scenario_checked(config, LabelPolicy::OnsetOnwards);
      return outcome.ok() ? Status::Ok() : outcome.status();
    });
    const Status status = group.wait();
    EXPECT_TRUE(status.ok()) << status.to_string();
    if (!outcome.ok()) return {};
    std::string payload;
    EXPECT_TRUE(append_scenario_payload(payload, *outcome).ok());
    return payload;
  }

  static ScenarioConfig load_config(const std::string& file) {
    Result<ScenarioConfig> config = load_scenario_config(scn_path(file));
    EXPECT_TRUE(config.ok()) << config.status().to_string();
    return config.ok() ? *config : ScenarioConfig{};
  }
};

TEST_F(ScenarioEquivalenceTest, SmokeScenarioFilesMatchTheCompiledConfigs) {
  const struct {
    const char* file;
    RoutingKind routing;
    TransportKind transport;
  } cases[] = {
      {"smoke-aodv-udp.scn", RoutingKind::Aodv, TransportKind::Udp},
      {"smoke-dsr-tcp.scn", RoutingKind::Dsr, TransportKind::Tcp},
  };
  for (const auto& c : cases) {
    const ScenarioConfig legacy =
        smoke_attack_config(c.routing, c.transport);
    const ScenarioConfig from_file = load_config(c.file);
    // Identical keys first: the file shares the plan's cached trace.
    ASSERT_EQ(from_file.cache_key(), legacy.cache_key()) << c.file;

    resize_shared_pool(1);
    const std::string legacy_bytes = trace_payload(legacy);
    ASSERT_FALSE(legacy_bytes.empty()) << c.file;
    EXPECT_EQ(trace_payload(from_file), legacy_bytes)
        << c.file << ": scenario-file trace diverged at --threads=1";

    resize_shared_pool(8);
    EXPECT_EQ(trace_payload(from_file), legacy_bytes)
        << c.file << ": scenario-file trace diverged at --threads=8";
  }
}

TEST_F(ScenarioEquivalenceTest, Fig1FastScenarioFileMatchesTheScaledPlan) {
  const ScenarioConfig legacy = fig1_fast_attack_config();
  const ScenarioConfig from_file = load_config("fig1-fast-aodv-udp.scn");
  ASSERT_EQ(from_file.cache_key(), legacy.cache_key());

  resize_shared_pool(1);
  const std::string legacy_bytes = trace_payload(legacy);
  ASSERT_FALSE(legacy_bytes.empty());
  EXPECT_EQ(trace_payload(from_file), legacy_bytes)
      << "fig1-fast trace diverged at --threads=1";

  resize_shared_pool(8);
  EXPECT_EQ(trace_payload(from_file), legacy_bytes)
      << "fig1-fast trace diverged at --threads=8";
}

TEST_F(ScenarioEquivalenceTest, Fig1FullScaleFileSharesThePlanCacheKey) {
  // Full 10000 s trace: too slow to simulate here, but key equality is the
  // exact cache-sharing contract (identical keys imply identical traces,
  // config.h) — running `xfa_bench fig1` first makes the file a cache hit.
  ScenarioConfig fig1_abnormal;  // paper_mixed_options() abnormal trace 0
  fig1_abnormal.seed = 1100;
  fig1_abnormal.attacks = mixed_attacks();
  EXPECT_EQ(load_config("fig1-aodv-udp.scn").cache_key(),
            fig1_abnormal.cache_key());
}

TEST_F(ScenarioEquivalenceTest, NovelImpersonationComboRunsFromPureData) {
  // The acceptance-criteria combination no compiled-in plan ever wired:
  // impersonation over TCP with a benign fault plan, composed from text.
  const ScenarioConfig config = load_config("impersonation-tcp-faults.scn");
  EXPECT_EQ(config.transport, TransportKind::Tcp);
  ASSERT_EQ(config.attacks.size(), 1u);
  EXPECT_EQ(config.attacks[0].kind, AttackKind::Impersonation);
  EXPECT_TRUE(config.has_faults());

  resize_shared_pool(8);
  const std::string bytes = trace_payload(config);
  ASSERT_FALSE(bytes.empty());
  // Deterministic like every other scenario: a second run is bit-identical.
  EXPECT_EQ(trace_payload(config), bytes);
}

TEST_F(ScenarioEquivalenceTest, DropModeScenarioLowersBothVariants) {
  const ScenarioConfig config = load_config("drop-modes-dsr.scn");
  ASSERT_EQ(config.attacks.size(), 2u);
  EXPECT_EQ(config.attacks[0].kind, AttackKind::RandomDrop);
  EXPECT_EQ(config.attacks[0].drop_mode, DropMode::Constant);
  EXPECT_FALSE(config.attacks[0].drop_data_only);
  EXPECT_FALSE(config.attacks[0].schedule.periodic);
  EXPECT_EQ(config.attacks[1].drop_mode, DropMode::Selective);
  EXPECT_EQ(config.attacks[1].drop_target, kInvalidNode);  // auto
}

}  // namespace
}  // namespace xfa
