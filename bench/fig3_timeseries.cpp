// Reproduces Figure 3: average-probability output over time, normal vs
// abnormal traces, with C4.5, for all four scenarios. Multiple traces per
// condition are averaged, as in the paper.
//
// Paper shape expectations:
//  * normal and abnormal curves coincide before the first intrusion (2500s);
//  * afterwards normal traces stay flat while abnormal traces drop and
//    oscillate, without fully recovering (the non-self-healing effect).

#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Figure 3: average probability over time, normal vs abnormal "
              "(C4.5)\n");
  print_rule('=');

  const ExperimentOptions options = paper_mixed_options();
  const SimTime onset = fast_mode_enabled() ? 2500 * 0.25 : 2500;
  const SimTime bin = onset / 10;  // 250 s bins at full scale

  for (const ScenarioCombo& combo : paper_scenarios()) {
    const ExperimentData data =
        gather_experiment_checked(combo.routing, combo.transport, options)
            .value();
    const Cell cell = evaluate(data, make_c45_factory());

    std::vector<const RawTrace*> normal_traces, abnormal_traces;
    for (std::size_t i = 1; i < data.normal_eval.size(); ++i)
      normal_traces.push_back(&data.normal_eval[i]);
    for (const RawTrace& trace : data.abnormal)
      abnormal_traces.push_back(&trace);

    const TimeSeries normal = downsample(
        score_series(cell.normal_scores, normal_traces,
                     ScoreKind::Probability),
        bin);
    const TimeSeries abnormal = downsample(
        score_series(cell.abnormal_scores, abnormal_traces,
                     ScoreKind::Probability),
        bin);

    std::printf("\n--- %s ---\n", combo.name.c_str());
    std::printf("  %-10s %-10s %-10s\n", "time(s)", "normal", "abnormal");
    for (std::size_t i = 0; i < normal.size() && i < abnormal.size(); ++i)
      std::printf("  %-10.0f %-10.3f %-10.3f\n", normal.times[i],
                  normal.values[i], abnormal.values[i]);

    // Shape statistics.
    double pre_gap = 0, post_gap = 0;
    std::size_t pre_n = 0, post_n = 0;
    double normal_post_var = 0, abnormal_post_var = 0, normal_post_mean = 0,
           abnormal_post_mean = 0;
    for (std::size_t i = 0; i < normal.size() && i < abnormal.size(); ++i) {
      const double gap = normal.values[i] - abnormal.values[i];
      if (normal.times[i] <= onset) {
        pre_gap += gap;
        ++pre_n;
      } else {
        post_gap += gap;
        ++post_n;
        normal_post_mean += normal.values[i];
        abnormal_post_mean += abnormal.values[i];
      }
    }
    pre_gap /= static_cast<double>(pre_n);
    post_gap /= static_cast<double>(post_n);
    normal_post_mean /= static_cast<double>(post_n);
    abnormal_post_mean /= static_cast<double>(post_n);
    for (std::size_t i = 0; i < normal.size() && i < abnormal.size(); ++i) {
      if (normal.times[i] > onset) {
        normal_post_var += std::pow(normal.values[i] - normal_post_mean, 2);
        abnormal_post_var +=
            std::pow(abnormal.values[i] - abnormal_post_mean, 2);
      }
    }
    normal_post_var /= static_cast<double>(post_n);
    abnormal_post_var /= static_cast<double>(post_n);

    std::printf("  pre-onset normal-abnormal gap:  %+.3f (expected ~0)\n",
                pre_gap);
    std::printf("  post-onset normal-abnormal gap: %+.3f (expected > 0)\n",
                post_gap);
    std::printf("  post-onset stddev: normal %.3f vs abnormal %.3f "
                "(abnormal oscillates more: %s)\n",
                std::sqrt(normal_post_var), std::sqrt(abnormal_post_var),
                abnormal_post_var > normal_post_var ? "YES" : "no");
  }
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  std::vector<ScenarioConfig> units;
  for (const ScenarioCombo& combo : paper_scenarios())
    append_experiment_units(units, combo.routing, combo.transport,
                            paper_mixed_options());
  return units;
}

const PlanRegistrar registrar{"fig3",
                              "Figure 3: average-probability time series, normal vs abnormal, C4.5",
                              run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
