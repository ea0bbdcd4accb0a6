// Ablation E: ground-truth labelling policy. The paper observes that the
// implemented intrusions do not self-heal, making "when did the attack end"
// ill-defined. This bench quantifies the difference between labelling
// everything after the first onset as abnormal (our default, matching
// Figure 3's flat-vs-oscillating split) and labelling only windows that
// overlap an active attack session.

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Ablation E: labelling policy (AODV/UDP, C4.5)\n");
  print_rule('=');

  std::printf("%-28s %-10s %-16s %-14s\n", "policy", "AUC+", "optimal (r,p)",
              "positives");
  for (const LabelPolicy policy :
       {LabelPolicy::OnsetOnwards, LabelPolicy::ActiveSessions}) {
    ExperimentOptions options = paper_mixed_options();
    options.label_policy = policy;
    const ExperimentData data = gather_experiment_checked(
        RoutingKind::Aodv, TransportKind::Udp, options).value();
    const Cell cell = evaluate(data, make_c45_factory());
    const PrCurve curve = pr_curve(cell, ScoreKind::Probability);
    const PrPoint best = curve.optimal_point();
    std::size_t positives = 0;
    for (const RawTrace& trace : data.abnormal)
      for (const int label : trace.labels) positives += label != 0 ? 1 : 0;
    std::printf("%-28s %-10.3f (%.2f, %.2f)      %-14zu\n",
                policy == LabelPolicy::OnsetOnwards ? "onset-onwards (default)"
                                                    : "active sessions only",
                curve.area_above_diagonal(), best.recall, best.precision,
                positives);
  }
  std::printf(
      "\nReading: with session-only labels, the lasting damage between\n"
      "sessions counts as false alarms, depressing precision — the paper's\n"
      "\"no way to figure out exactly when the intrusion actions have\n"
      "ended\" problem, made quantitative.\n");
  return 0;
}

const PlanRegistrar registrar{"ablation_labels",
                              "Ablation E: onset-onwards vs active-sessions labelling",
                              run_plan};

}  // namespace
}  // namespace xfa::bench
