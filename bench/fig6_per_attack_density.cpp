// Reproduces Figure 6: average-probability density distributions for the
// single-attack scenarios of Figure 5 (black hole only / dropping only),
// AODV/UDP with C4.5, including the threshold line and the two error
// masses the paper calls out ("areas under normal curve ... to the left of
// the threshold (false alarms) and under intrusive curves ... to the right
// (anomalies mistakenly accepted) are both very small").

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Figure 6: per-attack score densities, AODV/UDP, C4.5\n");
  print_rule('=');

  for (const AttackKind kind :
       {AttackKind::Blackhole, AttackKind::SelectiveDrop}) {
    // Session-overlap labels: the attack density is built from the windows
    // where the intrusion is actually acting, which is what the paper's
    // per-attack densities depict.
    ExperimentOptions options = paper_single_attack_options(kind);
    options.label_policy = LabelPolicy::ActiveSessions;
    const ExperimentData data = gather_experiment_checked(
        RoutingKind::Aodv, TransportKind::Udp, options).value();
    const Cell cell = evaluate(data, make_c45_factory());
    const double theta = cell.detector.threshold_probability;

    const auto normal_scores =
        pooled(cell.normal_scores, ScoreKind::Probability);
    std::vector<double> attack_scores;
    for (std::size_t t = 0; t < cell.abnormal_scores.size(); ++t)
      for (std::size_t i = 0; i < cell.abnormal_scores[t].size(); ++i)
        if (cell.data->abnormal[t].labels[i] != 0)
          attack_scores.push_back(cell.abnormal_scores[t][i].avg_probability);

    const DensityHistogram normal_hist = density_histogram(normal_scores, 25);
    const DensityHistogram attack_hist = density_histogram(attack_scores, 25);

    std::printf("\n--- %s only (threshold = %.3f) ---\n", to_string(kind),
                theta);
    std::printf("  %-8s %-12s %-12s\n", "score", "normal", "attack");
    for (std::size_t b = 0; b < normal_hist.bins(); ++b)
      std::printf("  %-8.2f %-12.3f %-12.3f\n", normal_hist.bin_centers[b],
                  normal_hist.density[b], attack_hist.density[b]);
    std::printf("  false-alarm mass (normal left of threshold): %.3f\n",
                mass_below(normal_hist, theta));
    std::printf("  accepted-anomaly mass (attack right of threshold): %.3f\n",
                1.0 - mass_below(attack_hist, theta));

    // Distinctness: compare distribution means.
    double nm = 0, am = 0;
    for (const double v : normal_scores) nm += v;
    for (const double v : attack_scores) am += v;
    nm /= static_cast<double>(normal_scores.size());
    am /= static_cast<double>(attack_scores.size());
    std::printf("  mean scores: normal %.3f vs attack %.3f "
                "(distinct: %s)\n",
                nm, am, nm > am ? "YES" : "no");
  }
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  // Label policy is not part of a config's cache key, so fig6 shares fig5's
  // trace units exactly.
  std::vector<ScenarioConfig> units;
  for (const AttackKind kind :
       {AttackKind::Blackhole, AttackKind::SelectiveDrop})
    append_experiment_units(units, RoutingKind::Aodv, TransportKind::Udp,
                            paper_single_attack_options(kind));
  return units;
}

const PlanRegistrar registrar{"fig6",
                              "Figure 6: per-attack density distributions, AODV/UDP, C4.5",
                              run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
