// Example: attack anatomy — what black hole and selective dropping do to the
// network, and how fast the detector notices each.
//
// For each attack type (paper Table 6), runs a clean trace and an attacked
// trace with the same seed, reports the damage (delivery ratio during attack
// sessions) and the detection latency of a C4.5 cross-feature detector.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "scenario/pipeline.h"

namespace {

struct AttackReport {
  const char* name;
  double clean_pdr;
  double attacked_pdr;
  double detection_latency;  // s from first onset to first alarm
  double detected_fraction;  // alarmed fraction of post-onset windows
};

AttackReport study(xfa::AttackKind kind, const xfa::Detector& detector,
                   xfa::RoutingKind routing, double duration) {
  xfa::ScenarioConfig clean;
  clean.routing = routing;
  clean.duration = duration;
  clean.seed = 2024;
  const auto clean_result = xfa::run_scenario_checked(clean).value();

  xfa::ScenarioConfig attacked = clean;
  attacked.attacks = xfa::single_attack_sessions(kind);
  // Rescale the paper's 2500/5000/7500 onsets to the chosen duration.
  for (auto& [start, len] : attacked.attacks[0].schedule.sessions) {
    start *= duration / 10000.0;
    len = 100;
  }
  const auto attack_result = xfa::run_scenario_checked(attacked).value();

  const auto scores = detector.score_trace(attack_result.trace);
  const double onset = attacked.attacks[0].schedule.sessions.front().first;
  double first_alarm = -1;
  std::size_t post = 0, alarmed = 0;
  for (std::size_t i = 0; i < scores.size(); ++i) {
    const double t = attack_result.trace.times[i];
    if (t <= onset) continue;
    ++post;
    if (scores[i].avg_probability < detector.threshold_probability) {
      ++alarmed;
      if (first_alarm < 0) first_alarm = t;
    }
  }

  AttackReport report;
  report.name = to_string(kind);
  report.clean_pdr = clean_result.summary.packet_delivery_ratio;
  report.attacked_pdr = attack_result.summary.packet_delivery_ratio;
  report.detection_latency = first_alarm < 0 ? -1 : first_alarm - onset;
  report.detected_fraction =
      post == 0 ? 0 : static_cast<double>(alarmed) / static_cast<double>(post);
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = argc > 1 ? std::atof(argv[1]) : 4000.0;
  const auto routing = xfa::RoutingKind::Aodv;

  std::printf("Attack anatomy study: AODV/UDP, %.0f s traces\n\n", duration);

  // Train on one normal trace, calibrate the threshold on a second.
  xfa::ScenarioConfig train;
  train.routing = routing;
  train.duration = duration;
  train.seed = 7;
  const auto train_result = xfa::run_scenario_checked(train).value();
  xfa::ScenarioConfig calibration = train;
  calibration.seed = 8;
  const auto calibration_result =
      xfa::run_scenario_checked(calibration).value();
  const xfa::Detector detector =
      xfa::train_detector_checked(train_result.trace, xfa::make_c45_factory(),
                                  {}, &calibration_result.trace)
          .value();

  std::printf("%-16s %-10s %-12s %-14s %-10s\n", "attack", "clean PDR",
              "attacked PDR", "latency (s)", "coverage");
  // The paper evaluates the first two; update storm and random dropping
  // complete its §2.3 taxonomy.
  for (const auto kind :
       {xfa::AttackKind::Blackhole, xfa::AttackKind::SelectiveDrop,
        xfa::AttackKind::UpdateStorm, xfa::AttackKind::RandomDrop}) {
    const AttackReport r = study(kind, detector, routing, duration);
    std::printf("%-16s %-10.3f %-12.3f %-14.1f %-10.3f\n", r.name,
                r.clean_pdr, r.attacked_pdr, r.detection_latency,
                r.detected_fraction);
  }
  std::printf(
      "\nNote: black-hole damage persists after sessions end (forged max\n"
      "sequence numbers are never superseded), so coverage counts windows\n"
      "from first onset onward — matching the paper's observation that the\n"
      "network does not self-heal from these intrusions.\n");
  return 0;
}
