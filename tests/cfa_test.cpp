// Unit tests: cross-feature analysis core (Algorithms 1-3), thresholds,
// and the paper's 2-node illustrative example (§3, Tables 1-3).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "cfa/model.h"
#include "cfa/threshold.h"
#include "eval/pr.h"
#include "exec/thread_pool.h"
#include "ml/c45.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"
#include "sim/rng.h"

namespace xfa {
namespace {

ClassifierFactory nbc() {
  return [] { return std::make_unique<NaiveBayes>(); };
}
ClassifierFactory c45() {
  return [] {
    C45Config config;
    config.min_split_samples = 2;
    return std::make_unique<C45>(config);
  };
}

/// Table 1: the complete set of normal events {Reachable?, Delivered?,
/// Cached?} in the 2-node example.
Dataset table1() {
  Dataset data;
  data.cardinality = {2, 2, 2};
  data.rows = {{1, 1, 1}, {1, 0, 0}, {0, 0, 1}, {0, 0, 0}};
  return data;
}

bool is_normal_event(int r, int d, int c) {
  return (r == 1 && d == 1 && c == 1) || (r == 1 && d == 0 && c == 0) ||
         (r == 0 && d == 0);
}

TEST(CrossFeature, TrainsOneSubmodelPerLabelColumn) {
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2}, nbc());
  EXPECT_EQ(model.submodel_count(), 3u);
  EXPECT_EQ(model.label_column_of(1), 1u);
  EXPECT_TRUE(model.trained());
}

TEST(CrossFeature, TwoNodeExampleSeparatesNormalFromAbnormal) {
  // The paper's Table 3 conclusion: with threshold 0.5, average probability
  // separates all 8 events correctly (match count has one false alarm).
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2}, nbc());
  for (int r = 0; r < 2; ++r) {
    for (int d = 0; d < 2; ++d) {
      for (int c = 0; c < 2; ++c) {
        const EventScore score = model.score({r, d, c});
        if (is_normal_event(r, d, c)) {
          EXPECT_GE(score.avg_probability, 0.5)
              << "normal event (" << r << "," << d << "," << c << ")";
        } else {
          EXPECT_LT(score.avg_probability, 0.5)
              << "abnormal event (" << r << "," << d << "," << c << ")";
        }
      }
    }
  }
}

TEST(CrossFeature, NormalEventsScoreHigherThanAbnormal) {
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2}, nbc());
  double min_normal = 1.0, max_abnormal = 0.0;
  for (int r = 0; r < 2; ++r)
    for (int d = 0; d < 2; ++d)
      for (int c = 0; c < 2; ++c) {
        const double p = model.score({r, d, c}).avg_probability;
        if (is_normal_event(r, d, c))
          min_normal = std::min(min_normal, p);
        else
          max_abnormal = std::max(max_abnormal, p);
      }
  EXPECT_GT(min_normal, max_abnormal);
}

TEST(CrossFeature, MatchCountIsFractionOfAgreeingSubmodels) {
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2}, nbc());
  const EventScore score = model.score({1, 1, 1});
  // Match count is k/3 for integer k.
  const double k = score.avg_match_count * 3.0;
  EXPECT_NEAR(k, std::round(k), 1e-9);
  EXPECT_GE(score.avg_match_count, 0.0);
  EXPECT_LE(score.avg_match_count, 1.0);
}

TEST(CrossFeature, ScoresBoundedInUnitInterval) {
  Rng rng(5);
  Dataset data;
  data.cardinality = {3, 3, 3, 3};
  for (int i = 0; i < 100; ++i) {
    const int base = static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({base, base, (base + 1) % 3,
                         static_cast<int>(rng.uniform_int(3))});
  }
  CrossFeatureModel model;
  model.train(data, {0, 1, 2, 3}, c45());
  for (int a = 0; a < 3; ++a)
    for (int b = 0; b < 3; ++b) {
      const EventScore score = model.score({a, b, a, b});
      EXPECT_GE(score.avg_probability, 0.0);
      EXPECT_LE(score.avg_probability, 1.0);
      EXPECT_GE(score.avg_match_count, 0.0);
      EXPECT_LE(score.avg_match_count, 1.0);
    }
}

TEST(CrossFeature, CorrelatedFeaturesDetectBrokenCorrelation) {
  // Three perfectly correlated features + one independent: breaking the
  // correlation must lower both scores.
  Rng rng(7);
  Dataset data;
  data.cardinality = {4, 4, 4, 2};
  for (int i = 0; i < 400; ++i) {
    const int v = static_cast<int>(rng.uniform_int(4));
    data.rows.push_back(
        {v, v, 3 - v, static_cast<int>(rng.uniform_int(2))});
  }
  CrossFeatureModel model;
  model.train(data, {0, 1, 2, 3}, c45());
  const EventScore normal = model.score({2, 2, 1, 0});
  const EventScore broken = model.score({2, 0, 3, 0});
  EXPECT_GT(normal.avg_probability, broken.avg_probability);
  EXPECT_GT(normal.avg_match_count, broken.avg_match_count);
}

TEST(CrossFeature, TrainingMatchesAcrossPoolSizes) {
  Rng rng(9);
  Dataset data;
  data.cardinality = {3, 3, 3, 3, 3};
  for (int i = 0; i < 200; ++i) {
    const int v = static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({v, (v + 1) % 3, v, static_cast<int>(
        rng.uniform_int(3)), (v + 2) % 3});
  }
  CrossFeatureModel narrow, wide;
  const std::vector<std::size_t> columns = {0, 1, 2, 3, 4};
  resize_shared_pool(1);
  narrow.train(data, columns, c45());
  resize_shared_pool(4);
  wide.train(data, columns, c45());
  resize_shared_pool(0);
  for (const auto& row : data.rows) {
    const EventScore a = narrow.score(row);
    const EventScore b = wide.score(row);
    EXPECT_DOUBLE_EQ(a.avg_probability, b.avg_probability);
    EXPECT_DOUBLE_EQ(a.avg_match_count, b.avg_match_count);
  }
}

TEST(CrossFeature, ScoreAllMatchesScore) {
  const Dataset data = table1();
  CrossFeatureModel model;
  model.train(data, {0, 1, 2}, nbc());
  const auto scores = model.score_all(data.rows);
  ASSERT_EQ(scores.size(), data.rows.size());
  for (std::size_t i = 0; i < data.rows.size(); ++i)
    EXPECT_DOUBLE_EQ(scores[i].avg_probability,
                     model.score(data.rows[i]).avg_probability);
}

TEST(CrossFeatureRegression, LearnsLinearCorrelations) {
  // f1 = 2*f0, f2 = f0 + 10; an event violating this scores worse.
  std::vector<std::vector<double>> rows;
  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const double v = rng.uniform(1, 50);
    rows.push_back({v, 2 * v, v + 10});
  }
  CrossFeatureRegressionModel model;
  model.train(rows, {0, 1, 2});
  const double normal = model.score({20, 40, 30});
  const double broken = model.score({20, 5, 45});
  EXPECT_GT(normal, broken);
  EXPECT_LE(normal, 1.0);
  EXPECT_GT(model.mean_log_distance({20, 5, 45}),
            model.mean_log_distance({20, 40, 30}));
}

TEST(CrossFeature, ConstantLabelColumnIsSkippedAndRenormalized) {
  // A constant feature (e.g. permanently-zero HELLO counts in DSR
  // scenarios, or counters frozen by benign loss bursts) admits no
  // discriminative sub-model: training skips it, records it, and the
  // Algorithm 2/3 averages renormalize over the survivors.
  Dataset data;
  data.cardinality = {3, 1, 3};
  Rng rng(13);
  for (int i = 0; i < 60; ++i) {
    const int v = static_cast<int>(rng.uniform_int(3));
    data.rows.push_back({v, 0, (v + 1) % 3});
  }
  CrossFeatureModel model;
  ASSERT_TRUE(model.train(data, {0, 1, 2}, c45()).ok());
  EXPECT_EQ(model.submodel_count(), 2u);
  ASSERT_EQ(model.skipped_columns().size(), 1u);
  EXPECT_EQ(model.skipped_columns()[0], 1u);
  const EventScore score = model.score({1, 0, 2});
  // Both surviving sub-models match; the average divides by 2, not 3.
  EXPECT_DOUBLE_EQ(score.avg_match_count, 1.0);
  EXPECT_GT(score.avg_probability, 0.9);

  // A label set with no discriminative column cannot train at all.
  CrossFeatureModel constant_only;
  const Status status = constant_only.train(data, {1}, c45());
  EXPECT_EQ(status.code(), StatusCode::kTrainFailed);
  EXPECT_FALSE(constant_only.trained());
}

TEST(CrossFeature, LabelColumnSubsetRestrictsSubmodels) {
  const Dataset data = table1();
  CrossFeatureModel model;
  model.train(data, {0, 2}, nbc());  // skip column 1
  EXPECT_EQ(model.submodel_count(), 2u);
  EXPECT_EQ(model.label_column_of(0), 0u);
  EXPECT_EQ(model.label_column_of(1), 2u);
}

TEST(CrossFeature, ExplainRanksDeviatingFeaturesFirst) {
  // Three correlated features; break one and it must top the explanation.
  Rng rng(15);
  Dataset data;
  data.cardinality = {4, 4, 4};
  for (int i = 0; i < 400; ++i) {
    const int v = static_cast<int>(rng.uniform_int(4));
    data.rows.push_back({v, v, v});
  }
  CrossFeatureModel model;
  model.train(data, {0, 1, 2}, c45());
  const auto verdicts = model.explain({2, 2, 0});  // column 2 broken
  ASSERT_EQ(verdicts.size(), 3u);
  EXPECT_EQ(verdicts.front().label_column, 2u);
  EXPECT_FALSE(verdicts.front().matched);
  EXPECT_EQ(verdicts.front().observed, 0);
  EXPECT_EQ(verdicts.front().predicted, 2);
  // Probabilities ascend.
  EXPECT_LE(verdicts[0].probability, verdicts[1].probability);
  EXPECT_LE(verdicts[1].probability, verdicts[2].probability);
}

TEST(CrossFeature, ExplainBreaksProbabilityTiesByLabelColumn) {
  // Three identical columns: on a consistent row every sub-model lands in
  // the same-count leaf, so all three probabilities tie exactly. Ties come
  // out in ascending label column, whatever order the sub-models were
  // trained in.
  Rng rng(15);
  Dataset data;
  data.cardinality = {4, 4, 4};
  for (int i = 0; i < 400; ++i) {
    const int v = static_cast<int>(rng.uniform_int(4));
    data.rows.push_back({v, v, v});
  }
  for (const std::vector<std::size_t>& order :
       {std::vector<std::size_t>{0, 1, 2}, std::vector<std::size_t>{2, 0, 1}}) {
    CrossFeatureModel model;
    ASSERT_TRUE(model.train(data, order, c45()).ok());
    const auto verdicts = model.explain({1, 1, 1});
    ASSERT_EQ(verdicts.size(), 3u);
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      EXPECT_EQ(verdicts[i].label_column, i);
      EXPECT_TRUE(verdicts[i].matched);
      EXPECT_EQ(verdicts[i].probability, verdicts[0].probability);
    }
  }
}

TEST(CrossFeatureDeathTest, RejectsRowNarrowerThanTrainedSchema) {
  // A truncated event row would index past its end inside every sub-model;
  // the schema-width contract fires before any out-of-bounds read.
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2}, nbc());
  EXPECT_DEATH(model.explain({1, 1}), "narrower than the trained schema");
  EXPECT_DEATH(model.score({1}), "narrower than the trained schema");
}

TEST(ThresholdTest, QuantileSelection) {
  std::vector<double> scores;
  for (int i = 1; i <= 100; ++i) scores.push_back(i / 100.0);
  const double theta = select_threshold(scores, 0.05);
  // ~5% of scores fall strictly below the selected threshold.
  const double far = realized_false_alarm_rate(scores, theta);
  EXPECT_LE(far, 0.06);
  EXPECT_GE(far, 0.03);
}

TEST(ThresholdTest, ZeroFarPicksMinimum) {
  const std::vector<double> scores = {0.4, 0.9, 0.2, 0.7};
  EXPECT_DOUBLE_EQ(select_threshold(scores, 0.0), 0.2);
  EXPECT_DOUBLE_EQ(realized_false_alarm_rate(scores, 0.2), 0.0);
}

TEST(ThresholdTest, RealizedFarCountsStrictlyBelow) {
  const std::vector<double> scores = {0.1, 0.5, 0.5, 0.9};
  EXPECT_DOUBLE_EQ(realized_false_alarm_rate(scores, 0.5), 0.25);
  EXPECT_DOUBLE_EQ(realized_false_alarm_rate(scores, 0.91), 1.0);
}

// The full 2-node sweep as a parameterized suite: C4.5 and NBC must rank
// the hardest abnormal event below every normal event on average
// probability. (RIPPER is excluded: with only four training rows its
// grow/prune split degenerates — the paper likewise found RIPPER the most
// sensitive of the three; it gets a bounded-sanity check instead.)
class TwoNodeParamTest : public ::testing::TestWithParam<int> {};

TEST_P(TwoNodeParamTest, HardAbnormalEventsScoreLowest) {
  ClassifierFactory factory = GetParam() == 0 ? c45() : nbc();
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2}, factory);
  // {True, False, True} never appears and breaks every correlation.
  const double hard = model.score({1, 0, 1}).avg_probability;
  for (const auto& row : table1().rows)
    EXPECT_GT(model.score(row).avg_probability, hard);
}

INSTANTIATE_TEST_SUITE_P(TreeAndBayes, TwoNodeParamTest,
                         ::testing::Values(0, 1));

TEST(CrossFeature, RipperOnTinyDataStaysBounded) {
  CrossFeatureModel model;
  model.train(table1(), {0, 1, 2},
              [] { return std::make_unique<Ripper>(); });
  for (int r = 0; r < 2; ++r)
    for (int d = 0; d < 2; ++d)
      for (int c = 0; c < 2; ++c) {
        const EventScore score = model.score({r, d, c});
        EXPECT_GE(score.avg_probability, 0.0);
        EXPECT_LE(score.avg_probability, 1.0);
      }
}

// --- Outside MANETs: credit-card fraud (paper §6) ------------------------
//
// The conclusion claims cross-feature analysis is "a general anomaly
// detection approach" and that "initial experiments using credit card fraud
// detection have revealed promising results". Synthetic cardholders have
// strong inter-feature habits (hour <-> merchant <-> amount <-> distance);
// stolen-card use breaks them. The detector trains on normal data only.
//
// Columns: hour band (0 night / 1 morning / 2 day / 3 evening), merchant
// (0 grocery / 1 fuel / 2 online / 3 travel / 4 luxury), amount band
// (0 small .. 3 large), distance band (0 near .. 2 far), velocity band
// (transactions in the last hour: 0 / 1 / 2+).

std::vector<int> normal_transaction(Rng& rng) {
  // Groceries by day near home, fuel in the morning, online shopping in the
  // evening, rare daytime travel. Velocity is almost always low.
  const double archetype = rng.uniform();
  if (archetype < 0.45) {
    return {2, 0, static_cast<int>(rng.uniform_int(2)), 0,
            rng.chance(0.9) ? 0 : 1};
  }
  if (archetype < 0.70) {
    return {1, 1, 0, static_cast<int>(rng.uniform_int(2)),
            rng.chance(0.9) ? 0 : 1};
  }
  if (archetype < 0.93) {
    return {3, 2, rng.chance(0.7) ? 1 : 2, 0, rng.chance(0.8) ? 0 : 1};
  }
  return {2, 3, 3, 2, 0};
}

std::vector<int> fraud_transaction(Rng& rng) {
  // Luxury at night, far away, in rapid bursts; or large online purchases
  // at odd hours.
  if (rng.chance(0.5)) return {0, 4, 3, 2, 2};
  return {0, 2, 3, static_cast<int>(rng.uniform_int(3)), 2};
}

TEST(CrossFeatureFraud, SeparatesFraudFromNormal) {
  Rng rng(2026);
  Dataset train;
  train.cardinality = {4, 5, 4, 3, 3};
  for (int i = 0; i < 4000; ++i) train.rows.push_back(normal_transaction(rng));
  CrossFeatureModel model;
  ASSERT_TRUE(model
                  .train(train, {0, 1, 2, 3, 4},
                         [] { return std::make_unique<C45>(); })
                  .ok());

  // Threshold at 1% false alarms on held-out normal transactions.
  std::vector<double> calibration;
  for (int i = 0; i < 2000; ++i)
    calibration.push_back(model.score(normal_transaction(rng)).avg_probability);
  const double theta = select_threshold(calibration, 0.01);

  // A fresh stream with 2% fraud.
  std::vector<double> scores, normal_scores;
  std::vector<int> labels;
  std::size_t caught = 0, frauds = 0;
  for (int i = 0; i < 5000; ++i) {
    const bool is_fraud = rng.chance(0.02);
    const double score =
        model.score(is_fraud ? fraud_transaction(rng) : normal_transaction(rng))
            .avg_probability;
    scores.push_back(score);
    labels.push_back(is_fraud ? 1 : 0);
    if (!is_fraud) {
      normal_scores.push_back(score);
    } else {
      ++frauds;
      if (score < theta) ++caught;
    }
  }

  ASSERT_GT(frauds, 0u);
  EXPECT_GE(static_cast<double>(caught) / static_cast<double>(frauds), 0.95);
  // Realized false alarms within 2x of the 1% target.
  EXPECT_LE(realized_false_alarm_rate(normal_scores, theta), 0.02);
  EXPECT_GE(recall_precision_curve(scores, labels).area_above_diagonal(),
            0.45);
}

}  // namespace
}  // namespace xfa
