// Graceful degradation of cross-feature analysis: constant (degenerate)
// feature columns are skipped with the Algorithm 2/3 averages renormalized
// over the survivors, unusable inputs surface as Status instead of aborting,
// and the detector's false-alarm rate stays bounded on faulty-but-normal
// traces produced under a FaultPlan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "cfa/model.h"
#include "common/env.h"
#include "faults/plan.h"
#include "ml/c45.h"
#include "scenario/pipeline.h"
#include "sim/rng.h"

namespace xfa {
namespace {

ClassifierFactory c45() {
  return [] { return std::make_unique<C45>(); };
}

Dataset dataset_with_constant_column() {
  Dataset data;
  data.cardinality = {3, 1, 3, 2};
  Rng rng(21);
  for (int i = 0; i < 80; ++i) {
    const int v = static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({v, 0, (v + 1) % 3, v % 2});
  }
  return data;
}

// Skipping a constant column must be *equivalent* to never having listed it:
// same surviving sub-models, same inputs, byte-equal renormalized scores.
TEST(DegradedCfa, SkippedColumnMatchesModelTrainedWithoutIt) {
  const Dataset data = dataset_with_constant_column();

  CrossFeatureModel degraded;
  ASSERT_TRUE(degraded.train(data, {0, 1, 2, 3}, c45(), 1).ok());
  ASSERT_EQ(degraded.skipped_columns(), std::vector<std::size_t>{1});
  ASSERT_EQ(degraded.submodel_count(), 3u);

  CrossFeatureModel reference;
  ASSERT_TRUE(reference.train(data, {0, 2, 3}, c45(), 1).ok());
  EXPECT_TRUE(reference.skipped_columns().empty());
  ASSERT_EQ(reference.submodel_count(), 3u);

  for (const auto& row : data.rows) {
    const EventScore a = degraded.score(row);
    const EventScore b = reference.score(row);
    EXPECT_DOUBLE_EQ(a.avg_match_count, b.avg_match_count);
    EXPECT_DOUBLE_EQ(a.avg_probability, b.avg_probability);
  }
}

TEST(DegradedCfa, UnusableInputsSurfaceAsStatusNotAbort) {
  const Dataset data = dataset_with_constant_column();

  CrossFeatureModel all_constant;
  const Status train_failed = all_constant.train(data, {1}, c45(), 1);
  EXPECT_EQ(train_failed.code(), StatusCode::kTrainFailed);
  EXPECT_FALSE(all_constant.trained());

  CrossFeatureModel empty;
  EXPECT_EQ(empty.train(Dataset{}, {0}, c45(), 1).code(),
            StatusCode::kDegenerateData);

  CrossFeatureModel bad_column;
  EXPECT_EQ(bad_column.train(data, {0, 99}, c45(), 1).code(),
            StatusCode::kInvalidArgument);
  CrossFeatureModel no_columns;
  EXPECT_EQ(no_columns.train(data, {}, c45(), 1).code(),
            StatusCode::kInvalidArgument);
}

TEST(DegradedCfa, TrainDetectorCheckedRejectsEmptyTrace) {
  const Result<Detector> detector =
      train_detector_checked(RawTrace{}, make_c45_factory());
  ASSERT_FALSE(detector.ok());
  EXPECT_EQ(detector.status().code(), StatusCode::kDegenerateData);
}

class DegradedPipelineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("XFA_NO_CACHE", "1", 1);
    refresh_env_for_testing();
  }
  void TearDown() override {
    unsetenv("XFA_NO_CACHE");
    refresh_env_for_testing();
  }

  static RawTrace faulty_normal_trace(std::uint64_t seed) {
    ScenarioConfig config;
    config.node_count = 15;
    config.duration = 300;
    config.seed = seed;
    config.traffic.max_connections = 8;
    config.faults = benign_chaos();
    return run_scenario_checked(config).value().trace;
  }
};

// A feature counter frozen by faults (here: forced constant post-hoc, the
// worst case of e.g. a neighbourhood stuck during long loss bursts) must be
// skipped by the ensemble while the detector keeps training and scoring.
TEST_F(DegradedPipelineTest, FrozenFeatureColumnIsSkippedAndDetectorSurvives) {
  RawTrace trace = faulty_normal_trace(1000);
  ASSERT_FALSE(trace.rows.empty());
  const std::vector<std::size_t> classifiable =
      FeatureSchema::standard().classifiable_columns();
  // Freeze a mid-schema traffic column to a constant.
  const std::size_t frozen = classifiable[classifiable.size() / 2];
  for (auto& row : trace.rows) row[frozen] = 3.0;

  DetectorOptions options;
  options.threads = 1;
  const Result<Detector> detector =
      train_detector_checked(trace, make_c45_factory(), options);
  ASSERT_TRUE(detector.ok()) << detector.status().to_string();

  const auto& skipped = detector->model.skipped_columns();
  EXPECT_NE(std::find(skipped.begin(), skipped.end(), frozen), skipped.end())
      << "frozen column " << frozen << " was not skipped";
  EXPECT_GT(detector->model.submodel_count(), 0u);

  const std::vector<EventScore> scores = detector->score_trace(trace);
  ASSERT_EQ(scores.size(), trace.size());
  for (const EventScore& score : scores) {
    EXPECT_TRUE(std::isfinite(score.avg_match_count));
    EXPECT_TRUE(std::isfinite(score.avg_probability));
    EXPECT_GE(score.avg_match_count, 0.0);
    EXPECT_LE(score.avg_match_count, 1.0);
  }
}

// The paper's premise under test: benign chaos (loss bursts, flaps, churn)
// is still *normal* behaviour, so a detector trained and calibrated on
// faulty-but-normal traces must keep its false-alarm rate on a held-out
// faulty-but-normal trace within a sane bound.
TEST_F(DegradedPipelineTest, FalseAlarmRateUnderChaosStaysBounded) {
  const RawTrace train = faulty_normal_trace(1000);
  const RawTrace calibrate = faulty_normal_trace(1001);
  const RawTrace evaluate = faulty_normal_trace(1002);
  ASSERT_GT(evaluate.size(), 20u);

  DetectorOptions options;
  options.threads = 1;
  options.false_alarm_rate = 0.05;
  const Result<Detector> trained =
      train_detector_checked(train, make_c45_factory(), options, &calibrate);
  ASSERT_TRUE(trained.ok()) << trained.status().to_string();
  const Detector& detector = *trained;

  const std::vector<EventScore> scores = detector.score_trace(evaluate);
  std::size_t false_alarms_match = 0, false_alarms_prob = 0;
  for (const EventScore& score : scores) {
    if (score.avg_match_count < detector.threshold_match) ++false_alarms_match;
    if (score.avg_probability < detector.threshold_probability)
      ++false_alarms_prob;
  }
  const auto n = static_cast<double>(scores.size());
  // Generous bound: the eval trace is short (~60 samples) and fully
  // independent chaos, so allow several times the nominal 5% FAR — the
  // failure mode being guarded against is wholesale false alarming.
  EXPECT_LE(static_cast<double>(false_alarms_match) / n, 0.35);
  EXPECT_LE(static_cast<double>(false_alarms_prob) / n, 0.35);
}

}  // namespace
}  // namespace xfa
