// Reproduces Figure 4: density distributions of the average-probability
// output, normal vs abnormal traces, with C4.5, plus the decision-threshold
// line, for all four scenarios.
//
// Paper shape expectations:
//  * normal and abnormal densities are clearly distinct;
//  * DSR leaves more abnormal mass on the "normal" side of the threshold
//    than AODV (i.e. AODV detects better).

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Figure 4: average-probability density, normal vs abnormal "
              "(C4.5)\n");
  print_rule('=');

  double aodv_missed = 0, dsr_missed = 0;
  for (const ScenarioCombo& combo : paper_scenarios()) {
    const ExperimentData data = gather_experiment_checked(
        combo.routing, combo.transport, paper_mixed_options()).value();
    const Cell cell = evaluate(data, make_c45_factory());
    const double theta = cell.detector.threshold_probability;

    const auto normal_scores = pooled(cell.normal_scores,
                                      ScoreKind::Probability);
    // Abnormal density uses post-onset windows only (the labelled events).
    std::vector<double> abnormal_scores;
    for (std::size_t t = 0; t < cell.abnormal_scores.size(); ++t)
      for (std::size_t i = 0; i < cell.abnormal_scores[t].size(); ++i)
        if (cell.data->abnormal[t].labels[i] != 0)
          abnormal_scores.push_back(
              cell.abnormal_scores[t][i].avg_probability);

    const DensityHistogram normal_hist = density_histogram(normal_scores, 25);
    const DensityHistogram abnormal_hist =
        density_histogram(abnormal_scores, 25);

    std::printf("\n--- %s (threshold = %.3f; left of it = anomaly) ---\n",
                combo.name.c_str(), theta);
    std::printf("  %-8s %-12s %-12s\n", "score", "normal", "abnormal");
    for (std::size_t b = 0; b < normal_hist.bins(); ++b)
      std::printf("  %-8.2f %-12.3f %-12.3f\n", normal_hist.bin_centers[b],
                  normal_hist.density[b], abnormal_hist.density[b]);

    const double false_alarm_mass = mass_below(normal_hist, theta);
    const double missed_mass = 1.0 - mass_below(abnormal_hist, theta);
    std::printf("  normal mass left of threshold (false alarms):   %.3f\n",
                false_alarm_mass);
    std::printf("  abnormal mass right of threshold (missed):      %.3f\n",
                missed_mass);
    (combo.routing == RoutingKind::Aodv ? aodv_missed : dsr_missed) +=
        missed_mass / 2;
  }

  print_rule('=');
  std::printf("shape check: DSR leaves more abnormal mass undetected than "
              "AODV?  %s (AODV %.3f vs DSR %.3f)\n",
              dsr_missed > aodv_missed ? "YES" : "no", aodv_missed,
              dsr_missed);
  return 0;
}

const PlanRegistrar registrar{"fig4",
                              "Figure 4: average-probability density distributions with threshold, C4.5",
                              run_plan};

}  // namespace
}  // namespace xfa::bench
