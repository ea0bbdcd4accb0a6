// Ablation C: threshold selection — target false-alarm rate (1 - confidence
// level) vs the realized false-alarm and detection rates on fresh traces,
// plus the labelling-policy alternative (active sessions only).

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"
#include "cfa/threshold.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Ablation C: threshold confidence sweep (AODV/UDP, C4.5)\n");
  print_rule('=');

  const ExperimentData data = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, paper_mixed_options()).value();
  // Train once, sweep thresholds over the calibration-trace quantiles.
  DetectorOptions options;
  const Cell cell = evaluate(data, make_c45_factory(), options);
  const auto calibration =
      project(cell.detector.score_trace(data.normal_eval.front()),
              ScoreKind::Probability);

  const auto fresh_normal = pooled(cell.normal_scores, ScoreKind::Probability);
  std::vector<double> attack_scores;
  std::size_t positives = 0;
  for (std::size_t t = 0; t < cell.abnormal_scores.size(); ++t)
    for (std::size_t i = 0; i < cell.abnormal_scores[t].size(); ++i)
      if (cell.data->abnormal[t].labels[i] != 0) {
        attack_scores.push_back(cell.abnormal_scores[t][i].avg_probability);
        ++positives;
      }

  std::printf("%-12s %-12s %-14s %-12s\n", "target FAR", "theta",
              "realized FAR", "detection");
  for (const double target : {0.005, 0.01, 0.02, 0.05, 0.10}) {
    const double theta = select_threshold(calibration, target);
    const double realized = realized_false_alarm_rate(fresh_normal, theta);
    std::size_t detected = 0;
    for (const double s : attack_scores)
      if (s < theta) ++detected;
    std::printf("%-12.3f %-12.3f %-14.4f %-12.3f\n", target, theta, realized,
                static_cast<double>(detected) /
                    static_cast<double>(positives));
  }
  std::printf(
      "\nReading: the held-out-normal quantile transfers to fresh traces\n"
      "(realized FAR tracks the target), and detection degrades gracefully\n"
      "as the threshold tightens — the paper's recall/precision trade-off.\n");
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  return experiment_configs(RoutingKind::Aodv, TransportKind::Udp,
                            paper_mixed_options());
}

const PlanRegistrar registrar{"ablation_threshold",
                              "Ablation C: target false-alarm rate vs realized FAR/detection",
                              run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
