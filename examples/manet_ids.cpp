// Example: a complete MANET intrusion detection deployment.
//
// Reproduces the paper's workflow end to end on one scenario:
//   1. simulate a normal trace and train the cross-feature detector,
//   2. pick the decision threshold at a target false-alarm rate,
//   3. monitor fresh traces (normal and attacked) and raise alarms,
//   4. report recall/precision and per-window alarm timelines.
//
// Usage: manet_ids [aodv|dsr] [udp|tcp] [c45|ripper|nbc]

#include <cstdio>
#include <cstring>
#include <string>

#include "eval/pr.h"
#include "scenario/pipeline.h"

int main(int argc, char** argv) {
  xfa::RoutingKind routing = xfa::RoutingKind::Aodv;
  xfa::TransportKind transport = xfa::TransportKind::Udp;
  xfa::ClassifierFactory factory = xfa::make_c45_factory();
  std::string classifier_name = "C4.5";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "dsr") == 0) routing = xfa::RoutingKind::Dsr;
    if (std::strcmp(argv[i], "tcp") == 0) transport = xfa::TransportKind::Tcp;
    if (std::strcmp(argv[i], "ripper") == 0) {
      factory = xfa::make_ripper_factory();
      classifier_name = "RIPPER";
    }
    if (std::strcmp(argv[i], "nbc") == 0) {
      factory = xfa::make_nbc_factory();
      classifier_name = "NBC";
    }
  }

  xfa::ExperimentOptions options;
  options.duration = 4000;
  options.normal_eval_traces = 3;  // first calibrates the threshold
  options.abnormal_traces = 2;
  options.attacks = xfa::mixed_attacks(/*session=*/200);
  for (auto& attack : options.attacks) attack.schedule.start *= 0.4;

  std::printf("MANET IDS: %s/%s with %s, %.0f s traces\n",
              to_string(routing), to_string(transport),
              classifier_name.c_str(), options.duration);

  std::printf("[1/4] simulating traces (cached after first run)...\n");
  const xfa::ExperimentData data =
      xfa::gather_experiment_checked(routing, transport, options).value();

  std::printf("[2/4] training %s cross-feature sub-models...\n",
              classifier_name.c_str());
  xfa::DetectorOptions detector_options;
  detector_options.false_alarm_rate = 0.02;
  // Threshold calibrated on a held-out normal trace (paper: a lower bound
  // of score values on normal events at the chosen confidence level).
  const xfa::Detector detector =
      xfa::train_detector_checked(data.train_normal, factory,
                                  detector_options, &data.normal_eval[0])
          .value();
  std::printf("      threshold(avg probability) = %.3f  (98%% confidence)\n",
              detector.threshold_probability);

  std::printf("[3/4] scoring evaluation traces...\n");
  std::vector<double> all_scores;
  std::vector<int> all_labels;
  std::size_t normal_alarms = 0, normal_events = 0;
  for (std::size_t t = 1; t < data.normal_eval.size(); ++t) {
    const xfa::RawTrace& trace = data.normal_eval[t];
    for (const xfa::EventScore& s : detector.score_trace(trace)) {
      all_scores.push_back(s.avg_probability);
      all_labels.push_back(0);
      ++normal_events;
      if (s.avg_probability < detector.threshold_probability) ++normal_alarms;
    }
  }
  std::size_t attack_alarms = 0, attack_positive = 0;
  bool explained_first_alarm = false;
  for (const xfa::RawTrace& trace : data.abnormal) {
    const auto scores = detector.score_trace(trace);
    for (std::size_t i = 0; i < scores.size(); ++i) {
      if (!explained_first_alarm && trace.labels[i] != 0 &&
          scores[i].avg_probability < detector.threshold_probability) {
        explained_first_alarm = true;
        std::printf("      first alarm at t=%.0fs — most deviating "
                    "features:\n",
                    trace.times[i]);
        const xfa::DiscreteTrace discrete =
            detector.discretizer.transform(trace);
        const auto verdicts = detector.model.explain(discrete.rows[i]);
        for (std::size_t v = 0; v < 5 && v < verdicts.size(); ++v) {
          const auto& verdict = verdicts[v];
          std::printf("        %-28s observed bucket %d, predicted %d "
                      "(p=%.2f)\n",
                      detector.schema.name(verdict.label_column).c_str(),
                      verdict.observed, verdict.predicted,
                      verdict.probability);
        }
      }
      all_scores.push_back(scores[i].avg_probability);
      all_labels.push_back(trace.labels[i]);
      if (trace.labels[i] != 0) {
        ++attack_positive;
        if (scores[i].avg_probability < detector.threshold_probability)
          ++attack_alarms;
      }
    }
  }

  std::printf("[4/4] results\n");
  std::printf("      false alarm rate on fresh normal traces: %.4f (%zu/%zu)\n",
              static_cast<double>(normal_alarms) /
                  static_cast<double>(normal_events),
              normal_alarms, normal_events);
  std::printf("      detection rate during/after intrusions:  %.4f (%zu/%zu)\n",
              static_cast<double>(attack_alarms) /
                  static_cast<double>(attack_positive),
              attack_alarms, attack_positive);

  const xfa::PrCurve curve = xfa::recall_precision_curve(all_scores, all_labels);
  const xfa::PrPoint best = curve.optimal_point();
  std::printf("      recall-precision optimal point: (%.2f, %.2f), "
              "AUC-above-diagonal=%.3f\n",
              best.recall, best.precision, curve.area_above_diagonal());
  return 0;
}
