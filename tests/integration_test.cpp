// Integration tests: the whole pipeline — simulate, extract, discretize,
// train cross-feature sub-models, threshold, detect — on reduced-scale
// scenarios (small field/durations so the suite stays fast).
#include <gtest/gtest.h>

#include "eval/pr.h"
#include "scenario/pipeline.h"

namespace xfa {
namespace {

/// Reduced-scale experiment: 800 s traces, attacks from 200 s / 400 s.
ExperimentOptions small_options() {
  ExperimentOptions options;
  options.duration = 800;
  options.normal_eval_traces = 2;
  options.abnormal_traces = 1;
  options.attacks = mixed_attacks(/*session=*/100);
  options.attacks[0].schedule.start = 200;
  options.attacks[1].schedule.start = 400;
  options.base_seed = 9000;
  return options;
}

struct PipelineResult {
  double normal_mean = 0;
  double attack_mean = 0;
  double auc_above_diagonal = 0;
  double far_at_threshold = 0;
  double detection_at_threshold = 0;
};

PipelineResult run_pipeline(RoutingKind routing, TransportKind transport,
                            const ClassifierFactory& factory) {
  const ExperimentData data =
      gather_experiment_checked(routing, transport, small_options()).value();
  DetectorOptions options;
  options.threads = 1;
  const Detector detector =
      train_detector_checked(data.train_normal, factory, options,
                             &data.normal_eval[0])
          .value();

  PipelineResult result;
  std::vector<double> scores;
  std::vector<int> labels;
  std::size_t n = 0, fa = 0;
  for (const EventScore& s : detector.score_trace(data.normal_eval[1])) {
    result.normal_mean += s.avg_probability;
    scores.push_back(s.avg_probability);
    labels.push_back(0);
    ++n;
    if (s.avg_probability < detector.threshold_probability) ++fa;
  }
  result.normal_mean /= static_cast<double>(n);
  result.far_at_threshold = static_cast<double>(fa) / static_cast<double>(n);

  const auto attack_scores = detector.score_trace(data.abnormal[0]);
  std::size_t positives = 0, detected = 0;
  double attack_sum = 0;
  for (std::size_t i = 0; i < attack_scores.size(); ++i) {
    const double s = attack_scores[i].avg_probability;
    scores.push_back(s);
    labels.push_back(data.abnormal[0].labels[i]);
    if (data.abnormal[0].labels[i] != 0) {
      attack_sum += s;
      ++positives;
      if (s < detector.threshold_probability) ++detected;
    }
  }
  result.attack_mean = attack_sum / static_cast<double>(positives);
  result.detection_at_threshold =
      static_cast<double>(detected) / static_cast<double>(positives);
  result.auc_above_diagonal =
      recall_precision_curve(scores, labels).area_above_diagonal();
  return result;
}

TEST(Integration, AodvUdpC45DetectsMixedAttacks) {
  const PipelineResult r =
      run_pipeline(RoutingKind::Aodv, TransportKind::Udp, make_c45_factory());
  // Shape, not absolute numbers: attacked windows score clearly below fresh
  // normal windows and the detector is much better than random guessing.
  EXPECT_GT(r.normal_mean, r.attack_mean + 0.02);
  EXPECT_GT(r.auc_above_diagonal, 0.1);
  EXPECT_GT(r.detection_at_threshold, r.far_at_threshold);
}

TEST(Integration, DsrUdpC45SeparatesAttackWindows) {
  // DSR is the paper's harder case, and at this reduced scale (160 training
  // rows) only the mean separation is a stable expectation; the full-scale
  // AUC comparison lives in bench/fig1_recall_precision.
  const PipelineResult r =
      run_pipeline(RoutingKind::Dsr, TransportKind::Udp, make_c45_factory());
  EXPECT_GT(r.normal_mean, r.attack_mean);
}

TEST(Integration, ThresholdCalibrationBoundsFalseAlarms) {
  const ExperimentData data =
      gather_experiment_checked(RoutingKind::Aodv, TransportKind::Udp,
                                small_options()).value();
  DetectorOptions options;
  options.threads = 1;
  options.false_alarm_rate = 0.05;
  const Detector detector =
      train_detector_checked(data.train_normal, make_c45_factory(), options,
                             &data.normal_eval[0]).value();
  // On the calibration trace itself, the realized FAR matches the target.
  std::size_t fa = 0, n = 0;
  for (const EventScore& s : detector.score_trace(data.normal_eval[0])) {
    ++n;
    if (s.avg_probability < detector.threshold_probability) ++fa;
  }
  EXPECT_NEAR(static_cast<double>(fa) / static_cast<double>(n), 0.05, 0.02);
}

TEST(Integration, DetectorScoresAreReproducible) {
  const ExperimentData data = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, small_options()).value();
  DetectorOptions options;
  options.threads = 1;
  const Detector a =
      train_detector_checked(data.train_normal, make_c45_factory(), options)
          .value();
  const Detector b =
      train_detector_checked(data.train_normal, make_c45_factory(), options)
          .value();
  const auto sa = a.score_trace(data.abnormal[0]);
  const auto sb = b.score_trace(data.abnormal[0]);
  ASSERT_EQ(sa.size(), sb.size());
  for (std::size_t i = 0; i < sa.size(); ++i) {
    EXPECT_DOUBLE_EQ(sa[i].avg_probability, sb[i].avg_probability);
    EXPECT_DOUBLE_EQ(sa[i].avg_match_count, sb[i].avg_match_count);
  }
}

TEST(Integration, PeriodRestrictedDetectorStillWorks) {
  const ExperimentData data = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, small_options()).value();
  DetectorOptions options;
  options.threads = 1;
  options.periods = {5.0};  // ablation B slice
  const Detector detector =
      train_detector_checked(data.train_normal, make_c45_factory(), options)
          .value();
  // Set I (8 classifiable topology features) + 44 five-second features,
  // minus whatever columns were constant over this short trace (skipped by
  // graceful degradation and recorded on the model).
  EXPECT_EQ(detector.model.submodel_count() +
                detector.model.skipped_columns().size(),
            52u);
  EXPECT_GT(detector.model.submodel_count(), 26u);  // majority survives
  const auto scores = detector.score_trace(data.abnormal[0]);
  EXPECT_EQ(scores.size(), data.abnormal[0].size());
}

TEST(Integration, RegressionVariantSeparatesAttackTrace) {
  const ExperimentData data = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, small_options()).value();
  // Continuous extension: linear-regression sub-models over raw features.
  const FeatureSchema schema = FeatureSchema::standard();
  CrossFeatureRegressionModel model;
  model.train(data.train_normal.rows, schema.classifiable_columns());
  double normal_mean = 0, attack_mean = 0;
  std::size_t attack_n = 0;
  for (const auto& row : data.normal_eval[1].rows)
    normal_mean += model.mean_log_distance(row);
  normal_mean /= static_cast<double>(data.normal_eval[1].size());
  for (std::size_t i = 0; i < data.abnormal[0].size(); ++i) {
    if (data.abnormal[0].labels[i] != 0) {
      attack_mean += model.mean_log_distance(data.abnormal[0].rows[i]);
      ++attack_n;
    }
  }
  attack_mean /= static_cast<double>(attack_n);
  // Higher log distance = more anomalous.
  EXPECT_GT(attack_mean, normal_mean);
}

}  // namespace
}  // namespace xfa
