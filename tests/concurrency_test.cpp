// Concurrency-safety of the scenario layer: many writers hammering the
// trace cache leave no litter and lose no bytes, the parallel
// gather_experiment_checked produces the exact inventory the serial path
// does, and one degenerate trace fails the inventory without being cached.
// These suites are the core of the ThreadSanitizer CI pass.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "common/env.h"
#include "common/status.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "scenario/cache.h"
#include "scenario/pipeline.h"
#include "scenario/runner.h"

namespace xfa {
namespace {

ScenarioResult sample_result(std::uint64_t salt) {
  ScenarioResult result;
  result.trace.times = {5, 10, 15};
  result.trace.rows = {{1. * salt, 2, 3}, {4, 5. * salt, 6}, {7, 8, 9}};
  result.trace.labels = {0, 0, 1};
  result.summary.data_originated = 100 + salt;
  result.summary.data_delivered = 90;
  result.summary.scheduler_events = salt;
  return result;
}

class CacheStressTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "xfa_cache_stress_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Files left in the cache directory with the given extension.
  std::size_t count_with_extension(const std::string& extension) const {
    std::size_t count = 0;
    for (const auto& entry : std::filesystem::directory_iterator(dir_))
      if (entry.path().extension() == extension) ++count;
    return count;
  }

  std::string dir_;
};

TEST_F(CacheStressTest, ConcurrentWritersOfOneKeyLeaveOneCleanArtifact) {
  const TraceCache cache(dir_);
  const ScenarioResult canonical = sample_result(1);
  ThreadPool pool(8);
  TaskGroup group(pool);
  for (int t = 0; t < 8; ++t)
    group.submit([&cache, &canonical] {
      for (int i = 0; i < 25; ++i) {
        const Status stored = cache.store("shared-key", canonical);
        if (!stored.ok()) return stored;
        const Result<ScenarioResult> loaded = cache.load("shared-key");
        if (!loaded.ok()) return loaded.status();
        if (loaded->trace.rows != canonical.trace.rows)
          return Status{StatusCode::kCorruptArtifact, "lost bytes"};
      }
      return Status::Ok();
    });
  ASSERT_TRUE(group.wait().ok());

  // Exactly the one artifact; no temp litter, nothing quarantined.
  EXPECT_EQ(count_with_extension(".trc"), 1u);
  EXPECT_EQ(count_with_extension(".tmp"), 0u);
  EXPECT_EQ(count_with_extension(".corrupt"), 0u);
  const Result<ScenarioResult> last = cache.load("shared-key");
  ASSERT_TRUE(last.ok()) << last.status().to_string();
  EXPECT_EQ(last->trace.rows, canonical.trace.rows);
  EXPECT_EQ(last->summary.data_originated, canonical.summary.data_originated);
}

TEST_F(CacheStressTest, ConcurrentWritersOfDistinctKeysAllSurvive) {
  const TraceCache cache(dir_);
  constexpr int kWriters = 8;
  constexpr int kKeysPerWriter = 10;
  ThreadPool pool(kWriters);
  TaskGroup group(pool);
  for (int t = 0; t < kWriters; ++t)
    group.submit([&cache, t] {
      for (int i = 0; i < kKeysPerWriter; ++i) {
        const std::string key =
            "writer-" + std::to_string(t) + "-key-" + std::to_string(i);
        const Status stored =
            cache.store(key, sample_result(t * kKeysPerWriter + i));
        if (!stored.ok()) return stored;
      }
      return Status::Ok();
    });
  ASSERT_TRUE(group.wait().ok());

  EXPECT_EQ(count_with_extension(".trc"), std::size_t{kWriters * kKeysPerWriter});
  EXPECT_EQ(count_with_extension(".tmp"), 0u);
  for (int t = 0; t < kWriters; ++t)
    for (int i = 0; i < kKeysPerWriter; ++i) {
      const std::string key =
          "writer-" + std::to_string(t) + "-key-" + std::to_string(i);
      const Result<ScenarioResult> loaded = cache.load(key);
      ASSERT_TRUE(loaded.ok()) << key << ": " << loaded.status().to_string();
      EXPECT_EQ(loaded->summary.scheduler_events,
                static_cast<std::uint64_t>(t * kKeysPerWriter + i))
          << key;
    }
}

class ParallelGatherTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("XFA_NO_CACHE", "1", 1);  // live simulation, no disk coupling
    refresh_env_for_testing();
  }
  void TearDown() override {
    unsetenv("XFA_NO_CACHE");
    unsetenv("XFA_CACHE_DIR");
    refresh_env_for_testing();
    resize_shared_pool(1);
  }

  static ExperimentOptions tiny_options() {
    ExperimentOptions options;
    options.duration = 300;
    options.normal_eval_traces = 2;
    options.abnormal_traces = 2;
    options.base_seed = 7100;
    options.attacks = mixed_attacks(/*session=*/50);
    options.attacks[0].schedule.start = 80;
    options.attacks[1].schedule.start = 150;
    return options;
  }
};

TEST_F(ParallelGatherTest, PoolSizeDoesNotChangeTheInventory) {
  resize_shared_pool(1);
  const Result<ExperimentData> serial = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, tiny_options());
  ASSERT_TRUE(serial.ok()) << serial.status().to_string();

  resize_shared_pool(8);
  const Result<ExperimentData> parallel = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, tiny_options());
  ASSERT_TRUE(parallel.ok()) << parallel.status().to_string();

  EXPECT_EQ(serial->train_normal.rows, parallel->train_normal.rows);
  EXPECT_EQ(serial->train_normal.labels, parallel->train_normal.labels);
  ASSERT_EQ(serial->normal_eval.size(), parallel->normal_eval.size());
  for (std::size_t i = 0; i < serial->normal_eval.size(); ++i)
    EXPECT_EQ(serial->normal_eval[i].rows, parallel->normal_eval[i].rows) << i;
  ASSERT_EQ(serial->abnormal.size(), parallel->abnormal.size());
  for (std::size_t i = 0; i < serial->abnormal.size(); ++i) {
    EXPECT_EQ(serial->abnormal[i].rows, parallel->abnormal[i].rows) << i;
    EXPECT_EQ(serial->abnormal[i].labels, parallel->abnormal[i].labels) << i;
  }
  ASSERT_EQ(serial->summaries.size(), parallel->summaries.size());
  for (std::size_t i = 0; i < serial->summaries.size(); ++i)
    EXPECT_EQ(serial->summaries[i].scheduler_events,
              parallel->summaries[i].scheduler_events)
        << i;
}

TEST_F(ParallelGatherTest, DegenerateTraceFailsTheInventoryAndIsNotCached) {
  ScenarioConfig normal;
  normal.node_count = 15;
  normal.duration = 150;
  normal.seed = 4343;
  normal.traffic.max_connections = 8;
  ScenarioConfig degenerate = normal;
  degenerate.duration = 1;  // shorter than one sample: degenerate for any seed
  const std::string key = degenerate.cache_key();
  ExperimentOptions options;
  options.normal_eval_traces = 1;
  options.abnormal_traces = 0;

  const std::string dir = ::testing::TempDir() + "xfa_gather_degenerate";
  unsetenv("XFA_NO_CACHE");
  setenv("XFA_CACHE_DIR", dir.c_str(), 1);
  refresh_env_for_testing();
  for (const std::size_t pool_size : {1u, 4u}) {
    std::filesystem::remove_all(dir);
    resize_shared_pool(pool_size);
    const Result<ExperimentData> data =
        gather_inventory_checked({normal, degenerate}, options);
    ASSERT_FALSE(data.ok()) << pool_size;
    EXPECT_EQ(data.status().code(), StatusCode::kDegenerateData) << pool_size;
    EXPECT_NE(data.status().message().find(key), std::string::npos)
        << pool_size << ": " << data.status().to_string();
    EXPECT_FALSE(std::filesystem::exists(TraceCache().artifact_path(key)))
        << pool_size;
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ParallelGatherTest, ConcurrentSameKeyRequestsSingleFlight) {
  // Several pool tasks requesting the same config must all get the same
  // trace (and, thanks to single-flight, mostly share one simulation).
  resize_shared_pool(4);
  ScenarioConfig config;
  config.node_count = 15;
  config.duration = 150;
  config.seed = 4242;
  config.traffic.max_connections = 8;

  const Result<ScenarioResult> reference = run_scenario_checked(config);
  ASSERT_TRUE(reference.ok()) << reference.status().to_string();

  std::vector<Result<ScenarioResult>> results(
      6, Status{StatusCode::kRetryable, "unset"});
  TaskGroup group(shared_pool());
  for (std::size_t i = 0; i < results.size(); ++i)
    group.submit([&results, &config, i] {
      results[i] = run_scenario_checked(config);
      return results[i].ok() ? Status::Ok() : results[i].status();
    });
  ASSERT_TRUE(group.wait().ok());
  for (std::size_t i = 0; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].ok()) << i;
    EXPECT_EQ(results[i]->trace.rows, reference->trace.rows) << i;
  }
}

}  // namespace
}  // namespace xfa
