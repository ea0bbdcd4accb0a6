// Reproduces Figure 2: average match count (Algorithm 2) vs average
// probability (Algorithm 3) with RIPPER, on all four scenarios.
//
// Paper shape expectations:
//  * RIPPER improves dramatically when average probability replaces average
//    match count;
//  * the same switch helps C4.5 and NBC much less (printed for contrast).

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Figure 2: avg match count vs avg probability (RIPPER)\n");
  print_rule('=');

  double ripper_gain = 0, others_gain = 0;
  for (const ScenarioCombo& combo : paper_scenarios()) {
    const ExperimentData data = gather_experiment_checked(
        combo.routing, combo.transport, paper_mixed_options()).value();
    for (const NamedFactory& classifier : paper_classifiers()) {
      const Cell cell = evaluate(data, classifier.factory);
      const PrCurve match_curve = pr_curve(cell, ScoreKind::MatchCount);
      const PrCurve prob_curve = pr_curve(cell, ScoreKind::Probability);
      const double gain = prob_curve.area_above_diagonal() -
                          match_curve.area_above_diagonal();
      if (classifier.name == "RIPPER") {
        std::printf("\n--- %s, RIPPER ---\n", combo.name.c_str());
        std::printf("  average match count curve:\n");
        print_curve(match_curve, 8);
        std::printf("  average probability curve:\n");
        print_curve(prob_curve, 8);
        ripper_gain += gain / 4;
      } else {
        std::printf("  [contrast] %s %-7s AUC: match=%.3f prob=%.3f "
                    "(gain %+.3f)\n",
                    combo.name.c_str(), classifier.name.c_str(),
                    match_curve.area_above_diagonal(),
                    prob_curve.area_above_diagonal(), gain);
        others_gain += gain / 8;
      }
    }
  }

  print_rule('=');
  std::printf("shape check: probability >> match count for RIPPER?  %s "
              "(RIPPER gain %+.3f, C4.5/NBC mean gain %+.3f)\n",
              ripper_gain > others_gain ? "YES" : "no", ripper_gain,
              others_gain);
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  std::vector<ScenarioConfig> units;
  for (const ScenarioCombo& combo : paper_scenarios())
    append_experiment_units(units, combo.routing, combo.transport,
                            paper_mixed_options());
  return units;
}

const PlanRegistrar registrar{"fig2",
                              "Figure 2: average match count vs average probability with RIPPER",
                              run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
