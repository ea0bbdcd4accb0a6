// Reproduces Figure 1: recall-precision curves using average probability,
// for C4.5 / RIPPER / NBC on all four scenarios (AODV/DSR x TCP/UDP).
//
// Paper shape expectations this bench verifies and prints:
//  * C4.5 is the most accurate classifier (largest AUC above the random-
//    guess diagonal), RIPPER second, NBC last;
//  * AODV scenarios beat the corresponding DSR scenarios.

#include <cstdio>
#include <map>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf(
      "Figure 1: recall-precision curves (average probability)\n"
      "mixed intrusions: black hole @2500s + selective dropping @5000s\n");
  print_rule('=');

  std::map<std::string, double> auc;  // "scenario/classifier" -> AUC
  for (const ScenarioCombo& combo : paper_scenarios()) {
    const ExperimentData data =
        gather_experiment_checked(combo.routing, combo.transport,
                                  paper_mixed_options()).value();
    for (const NamedFactory& classifier : paper_classifiers()) {
      std::printf("\n--- %s, %s ---\n", combo.name.c_str(),
                  classifier.name.c_str());
      const Cell cell = evaluate(data, classifier.factory);
      const PrCurve curve = pr_curve(cell, ScoreKind::Probability);
      print_curve(curve);
      auc[combo.name + "/" + classifier.name] = curve.area_above_diagonal();
    }
  }

  print_rule('=');
  std::printf("AUC-above-diagonal summary (paper shape checks)\n");
  print_rule('=');
  std::printf("%-12s %10s %10s %10s\n", "scenario", "C4.5", "RIPPER", "NBC");
  for (const ScenarioCombo& combo : paper_scenarios())
    std::printf("%-12s %10.3f %10.3f %10.3f\n", combo.name.c_str(),
                auc[combo.name + "/C4.5"], auc[combo.name + "/RIPPER"],
                auc[combo.name + "/NBC"]);

  double c45_mean = 0, ripper_mean = 0, nbc_mean = 0;
  double aodv_c45 = 0, dsr_c45 = 0;
  for (const ScenarioCombo& combo : paper_scenarios()) {
    c45_mean += auc[combo.name + "/C4.5"] / 4;
    ripper_mean += auc[combo.name + "/RIPPER"] / 4;
    nbc_mean += auc[combo.name + "/NBC"] / 4;
    (combo.routing == RoutingKind::Aodv ? aodv_c45 : dsr_c45) +=
        auc[combo.name + "/C4.5"] / 2;
  }
  std::printf("\nshape check: C4.5 best classifier on mean AUC?     %s "
              "(C4.5=%.3f RIPPER=%.3f NBC=%.3f)\n",
              (c45_mean >= ripper_mean && c45_mean >= nbc_mean) ? "YES" : "no",
              c45_mean, ripper_mean, nbc_mean);
  std::printf("shape check: AODV beats DSR with C4.5?             %s "
              "(AODV=%.3f DSR=%.3f)\n",
              aodv_c45 > dsr_c45 ? "YES" : "no", aodv_c45, dsr_c45);
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  std::vector<ScenarioConfig> units;
  for (const ScenarioCombo& combo : paper_scenarios())
    append_experiment_units(units, combo.routing, combo.transport,
                            paper_mixed_options());
  return units;
}

const PlanRegistrar registrar{"fig1",
                              "Figure 1: recall-precision curves (average probability), all scenarios/classifiers",
                              run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
