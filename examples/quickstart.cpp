// Quickstart: cross-feature analysis on the paper's 2-node illustrative
// example (§3, Tables 1-3), then the same API on a real simulated trace.
//
// Demonstrates the core public API:
//   Dataset -> CrossFeatureModel::train -> score (avg match count /
//   avg probability) -> threshold decision.
//
// Exits 1 unless the attack trace scores below the normal one, so ctest
// keeps the printed claim honest.

#include <cstdio>
#include <vector>

#include "ml/naive_bayes.h"
#include "scenario/pipeline.h"

namespace {

using xfa::Dataset;

// The complete set of normal events from Table 1:
// {Reachable?, Delivered?, Cached?}
Dataset table1_normal_events() {
  Dataset data;
  data.cardinality = {2, 2, 2};
  data.names = {"Reachable?", "Delivered?", "Cached?"};
  data.rows = {
      {1, 1, 1},  // True  True  True
      {1, 0, 0},  // True  False False
      {0, 0, 1},  // False False True
      {0, 0, 0},  // False False False
  };
  return data;
}

const char* bit(int v) { return v != 0 ? "True " : "False"; }

}  // namespace

int main() {
  std::printf("== Part 1: the 2-node network example (paper §3) ==\n\n");

  const Dataset normal = table1_normal_events();
  xfa::CrossFeatureModel model;
  // Train one sub-model per feature on normal events only (Algorithm 1).
  model.train(normal, {0, 1, 2}, xfa::make_nbc_factory());

  std::printf("%-10s %-10s %-8s | %-8s %-10s %-8s\n", "Reachable", "Delivered",
              "Cached", "class", "matchcnt", "avgprob");
  const double theta = 0.5;  // the example's decision threshold
  for (int r = 0; r < 2; ++r) {
    for (int d = 0; d < 2; ++d) {
      for (int c = 0; c < 2; ++c) {
        const std::vector<int> event = {r, d, c};
        const bool is_normal_event =
            (r == 1 && d == 1 && c == 1) || (r == 1 && d == 0 && c == 0) ||
            (r == 0 && d == 0);
        const xfa::EventScore score = model.score(event);
        const char* verdict =
            score.avg_probability >= theta ? "normal" : "ANOMALY";
        std::printf("%-10s %-10s %-8s | %-8s %-10.2f %-8.2f -> %s\n", bit(r),
                    bit(d), bit(c), is_normal_event ? "Normal" : "Abnormal",
                    score.avg_match_count, score.avg_probability, verdict);
      }
    }
  }

  std::printf("\n== Part 2: a simulated MANET trace ==\n\n");
  // One small AODV/UDP run: train on normal, set the threshold on a held-out
  // normal trace, then score a second normal trace and an attack trace.
  xfa::ExperimentOptions options;
  options.normal_eval_traces = 2;  // the first one calibrates the threshold
  options.abnormal_traces = 1;
  options.duration = 2000;
  options.attacks = xfa::mixed_attacks(/*session=*/100);
  for (auto& attack : options.attacks) {
    attack.schedule.start /= 5;  // onsets at 500 s / 1000 s for a 2000 s run
  }
  const xfa::ExperimentData data = xfa::gather_experiment_checked(
      xfa::RoutingKind::Aodv, xfa::TransportKind::Udp, options).value();

  // Threshold: a lower quantile of scores on held-out normal data (§3).
  xfa::DetectorOptions detector_options;
  const xfa::Detector detector =
      xfa::train_detector_checked(data.train_normal, xfa::make_c45_factory(),
                                  detector_options, &data.normal_eval[0])
          .value();
  const double threshold = detector.threshold_probability;

  const xfa::RawTrace& normal_trace = data.normal_eval[1];
  const xfa::RawTrace& attack_trace = data.abnormal.front();
  const auto normal_scores = detector.score_trace(normal_trace);
  const auto attack_scores = detector.score_trace(attack_trace);
  double normal_mean = 0, attack_mean = 0;
  std::size_t false_alarms = 0, caught = 0, positives = 0;
  for (const auto& s : normal_scores) {
    normal_mean += s.avg_probability;
    if (s.avg_probability < threshold) ++false_alarms;
  }
  for (std::size_t i = 0; i < attack_scores.size(); ++i) {
    attack_mean += attack_scores[i].avg_probability;
    if (attack_trace.labels[i] == 0) continue;
    ++positives;
    if (attack_scores[i].avg_probability < threshold) ++caught;
  }
  normal_mean /= static_cast<double>(normal_scores.size());
  attack_mean /= static_cast<double>(attack_scores.size());

  std::printf("sub-models trained:            %zu\n",
              detector.model.submodel_count());
  std::printf("decision threshold (avgprob):  %.3f  (%.0f%% FAR target)\n",
              threshold, 100 * detector_options.false_alarm_rate);
  std::printf("mean avg-probability, normal:  %.3f\n", normal_mean);
  std::printf("mean avg-probability, attack:  %.3f\n", attack_mean);
  std::printf("false alarms, normal trace:    %zu / %zu\n", false_alarms,
              normal_scores.size());
  std::printf("recall, attack trace:          %zu / %zu\n", caught,
              positives);
  const bool separated = attack_mean < normal_mean;
  std::printf("=> attack trace scores %s the normal trace\n",
              separated ? "below" : "NOT below");
  return separated ? 0 : 1;
}
