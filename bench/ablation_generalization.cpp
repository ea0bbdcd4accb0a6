// Ablation D: cross-scenario generalization. The paper's evaluation keeps
// one mobility scenario and one connection pattern per experiment (the ns-2
// reused-scenario-file convention); this ablation measures how much accuracy
// is lost when evaluation traces instead use *different* mobility scenarios
// and/or connection patterns than the training trace.

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace {

using namespace xfa;

/// Reduced scale (4000 s, 2 normal + 1 abnormal evaluation traces): this
/// ablation needs 16 traces that nothing else shares, and only the
/// *relative* accuracy across the four cases matters.
ExperimentOptions varied_options() {
  ExperimentOptions options = paper_mixed_options();
  options.duration = 4000;
  options.normal_eval_traces = 2;
  options.abnormal_traces = 1;
  for (AttackSpec& attack : options.attacks) attack.schedule.start *= 0.4;
  if (fast_mode_enabled()) options = scaled(options);
  return options;
}

/// The trace inventory for one variation case, laid out the way
/// gather_inventory_checked() expects: training trace, normal evaluation
/// traces, then attack traces.
std::vector<ScenarioConfig> varied_configs(const ExperimentOptions& options,
                                           bool vary_mobility,
                                           bool vary_traffic) {
  ScenarioConfig base;
  base.routing = RoutingKind::Aodv;
  base.transport = TransportKind::Udp;
  base.duration = options.duration;

  std::vector<ScenarioConfig> configs;
  for (std::size_t i = 0; i < 1 + options.normal_eval_traces +
                                  options.abnormal_traces;
       ++i) {
    ScenarioConfig config = base;
    config.seed = options.base_seed + i;
    if (i > 0 && vary_mobility) config.mobility_seed += i;
    if (i > 0 && vary_traffic) config.traffic_seed += i;
    if (i > options.normal_eval_traces) config.attacks = options.attacks;
    configs.push_back(std::move(config));
  }
  return configs;
}

}  // namespace

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Ablation D: cross-scenario generalization (AODV/UDP, C4.5)\n");
  print_rule('=');

  struct Case {
    const char* name;
    bool vary_mobility;
    bool vary_traffic;
  };
  const Case cases[] = {
      {"shared scenario files (paper setup)", false, false},
      {"varied mobility scenario", true, false},
      {"varied connection pattern", false, true},
      {"varied both", true, true},
  };

  std::printf("%-40s %-10s %-16s\n", "evaluation traces", "AUC+",
              "optimal (r,p)");
  for (const Case& c : cases) {
    const xfa::ExperimentOptions options = varied_options();
    const xfa::ExperimentData data =
        xfa::gather_inventory_checked(
            varied_configs(options, c.vary_mobility, c.vary_traffic), options)
            .value();
    const Cell cell = evaluate(data, xfa::make_c45_factory());
    const xfa::PrCurve curve = pr_curve(cell, xfa::ScoreKind::Probability);
    const xfa::PrPoint best = curve.optimal_point();
    std::printf("%-40s %-10.3f (%.2f, %.2f)\n", c.name,
                curve.area_above_diagonal(), best.recall, best.precision);
  }
  std::printf(
      "\nReading: the normal profile is scenario-specific — accuracy drops\n"
      "when the deployment's mobility/traffic context changes, which is why\n"
      "a fielded MANET IDS would retrain its profile in place.\n");
  return 0;
}

const PlanRegistrar registrar{"ablation_generalization",
                              "Ablation D: cross-scenario generalization loss",
                              run_plan};

}  // namespace
}  // namespace xfa::bench
