// Reproduces Figure 5: average-probability time series for single-attack
// traces (black hole only / selective dropping only) on AODV/UDP with C4.5.
// Each trace has three 100-second intrusion sessions at 2500/5000/7500 s.
//
// Paper shape expectations:
//  * each attack type is clearly separated from normal traces;
//  * the black hole's damage persists after sessions end (forged maximum
//    sequence numbers are never rectified), so scores do not recover.

#include <cstdio>

#include "bench/common.h"
#include "bench/registry.h"

namespace xfa::bench {
namespace {

int run_plan() {
  using namespace xfa;
  using namespace xfa::bench;

  print_rule('=');
  std::printf("Figure 5: per-attack time series, AODV/UDP, C4.5\n");
  print_rule('=');

  const bool fast = fast_mode_enabled();
  const double scale = fast ? 0.25 : 1.0;
  const SimTime bin = 100 * scale;  // bin == session length: dips stay visible

  for (const AttackKind kind :
       {AttackKind::Blackhole, AttackKind::SelectiveDrop}) {
    const ExperimentData data = gather_experiment_checked(
        RoutingKind::Aodv, TransportKind::Udp,
        paper_single_attack_options(kind)).value();
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

    const double theta = cell.detector.threshold_probability;
    std::printf("\n--- %s only (sessions @%.0f/%.0f/%.0f s, 100 s each; "
                "threshold %.3f) ---\n",
                to_string(kind), 2500 * scale, 5000 * scale, 7500 * scale,
                theta);
    // Print the series around each session (the interesting neighborhoods),
    // eliding the long flat stretches.
    std::printf("  %-10s %-10s %-10s\n", "time(s)", "normal", "attack");
    for (std::size_t i = 0; i < normal.size() && i < abnormal.size(); ++i) {
      const double t = normal.times[i];
      bool near_session = false;
      for (const double s : {2500.0, 5000.0, 7500.0})
        if (t > (s - 200) * scale && t <= (s + 400) * scale)
          near_session = true;
      if (near_session)
        std::printf("  %-10.0f %-10.3f %-10.3f%s\n", t, normal.values[i],
                    abnormal.values[i],
                    abnormal.values[i] < theta ? "  << ALARM" : "");
    }

    // Per-session statistics: mean attack score inside each session window
    // vs the normal series over the same window, and the first-alarm time.
    std::printf("  %-12s %-12s %-12s %-12s\n", "session", "normal",
                "attack", "detected");
    for (const double s : {2500.0, 5000.0, 7500.0}) {
      double normal_mean = 0, attack_mean = 0;
      std::size_t n = 0;
      bool detected = false;
      for (std::size_t t = 0; t < cell.abnormal_scores.size(); ++t) {
        const RawTrace& trace = cell.data->abnormal[t];
        for (std::size_t i = 0; i < trace.size(); ++i) {
          const double time = trace.times[i];
          if (time > s * scale && time <= (s + 100) * scale) {
            attack_mean += cell.abnormal_scores[t][i].avg_probability;
            ++n;
            if (cell.abnormal_scores[t][i].avg_probability < theta)
              detected = true;
          }
        }
      }
      attack_mean /= static_cast<double>(n);
      n = 0;
      for (std::size_t i = 0; i < normal.size(); ++i) {
        if (normal.times[i] > s * scale &&
            normal.times[i] <= (s + 100) * scale) {
          normal_mean += normal.values[i];
          ++n;
        }
      }
      normal_mean /= static_cast<double>(std::max<std::size_t>(n, 1));
      std::printf("  @%-11.0f %-12.3f %-12.3f %-12s\n", s * scale,
                  normal_mean, attack_mean, detected ? "YES" : "no");
    }
    std::printf(
        "  (between sessions the network heals within ~60 s on our\n"
        "   RFC-semantics AODV — see DESIGN.md section 7.9 for how this\n"
        "   differs from ns-2's never-rectified behaviour.)\n");
  }
  return 0;
}

std::vector<ScenarioConfig> plan_units() {
  std::vector<ScenarioConfig> units;
  for (const AttackKind kind :
       {AttackKind::Blackhole, AttackKind::SelectiveDrop})
    append_experiment_units(units, RoutingKind::Aodv, TransportKind::Udp,
                            paper_single_attack_options(kind));
  return units;
}

const PlanRegistrar registrar{"fig5",
                              "Figure 5: per-attack time series (black hole / dropping), AODV/UDP, C4.5",
                              run_plan, plan_units};

}  // namespace
}  // namespace xfa::bench
