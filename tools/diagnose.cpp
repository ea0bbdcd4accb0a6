// Developer diagnostic: per-condition score statistics for one scenario.
#include <algorithm>
#include <cstdio>
#include "scenario/pipeline.h"
#include "eval/pr.h"

using namespace xfa;

int main(int argc, char** argv) {
  ExperimentOptions options;
  options.duration = 800;
  options.normal_eval_traces = 2;
  options.abnormal_traces = 1;
  options.attacks = mixed_attacks(100);
  options.attacks[0].schedule.start = 200;
  options.attacks[1].schedule.start = 400;
  options.base_seed = 9000;
  RoutingKind routing = (argc > 1 && std::string(argv[1]) == "dsr")
                            ? RoutingKind::Dsr : RoutingKind::Aodv;
  const ExperimentData data =
      gather_experiment_checked(routing, TransportKind::Udp, options).value();
  const Detector det =
      train_detector_checked(data.train_normal, make_c45_factory(), {},
                             &data.normal_eval[0])
          .value();
  auto show = [&](const char* name, const RawTrace& trace) {
    const auto scores = det.score_trace(trace);
    std::printf("%s:\n  t:      ", name);
    for (size_t i = 0; i < scores.size(); i += 8)
      std::printf("%6.0f ", trace.times[i]);
    std::printf("\n  score:  ");
    for (size_t i = 0; i < scores.size(); i += 8)
      std::printf("%6.3f ", scores[i].avg_probability);
    std::printf("\n");
  };
  show("fresh normal", data.normal_eval[1]);
  show("attack", data.abnormal[0]);
  return 0;
}
