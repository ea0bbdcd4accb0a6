// Smoke plan: a deliberately small end-to-end exercise of the whole engine
// (parallel gather, cache, training, scoring) that finishes in seconds even
// on one core. Used by the engine-determinism test to compare --threads=1
// against --threads=8 byte-for-byte, and handy as a quick manual sanity run.
//
// Everything is scaled down: 800-second traces, two evaluation and two
// attack traces, two scenarios, two classifiers. The numbers are NOT the
// paper's — only the plumbing is.

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

ExperimentOptions smoke_options() {
  ExperimentOptions options;
  options.duration = 800;
  options.normal_eval_traces = 2;
  options.abnormal_traces = 2;
  options.base_seed = 9100;
  options.attacks = mixed_attacks(/*session=*/100);
  // Early onsets so the short traces still contain both attack phases.
  options.attacks[0].schedule.start = 200;
  options.attacks[1].schedule.start = 400;
  return options;
}

int run_plan() {
  print_rule('=');
  std::printf("Smoke plan: scaled-down engine exercise (not paper numbers)\n");
  print_rule('=');

  const std::vector<ScenarioCombo> scenarios = {
      {RoutingKind::Aodv, TransportKind::Udp, "AODV/UDP"},
      {RoutingKind::Dsr, TransportKind::Tcp, "DSR/TCP"},
  };
  const std::vector<NamedFactory> classifiers = {
      {"C4.5", make_c45_factory()},
      {"NBC", make_nbc_factory()},
  };

  std::printf("%-12s %10s %10s\n", "scenario", "C4.5", "NBC");
  for (const ScenarioCombo& combo : scenarios) {
    const ExperimentData data =
        gather_experiment_checked(combo.routing, combo.transport,
                                  smoke_options())
            .value();
    std::printf("%-12s", combo.name.c_str());
    for (const NamedFactory& classifier : classifiers) {
      const Cell cell = evaluate(data, classifier.factory);
      const PrCurve curve = pr_curve(cell, ScoreKind::Probability);
      std::printf(" %10.3f", curve.area_above_diagonal());
    }
    std::printf("\n");
  }
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  std::vector<ScenarioConfig> units;
  for (const ScenarioCombo& combo :
       {ScenarioCombo{RoutingKind::Aodv, TransportKind::Udp, "AODV/UDP"},
        ScenarioCombo{RoutingKind::Dsr, TransportKind::Tcp, "DSR/TCP"}})
    append_experiment_units(units, combo.routing, combo.transport,
                            smoke_options());
  return units;
}

const PlanRegistrar registrar{
    "smoke", "Scaled-down end-to-end engine exercise (seconds, not minutes)",
    run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
