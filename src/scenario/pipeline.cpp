#include "scenario/pipeline.h"

#include <algorithm>

#include "common/check.h"
#include "common/env.h"
#include "exec/task_group.h"
#include "ml/c45.h"
#include "ml/naive_bayes.h"
#include "ml/ripper.h"

namespace xfa {

bool fast_mode_enabled() { return env().fast; }

ExperimentOptions scaled(ExperimentOptions options) {
  constexpr double kFactor = 0.25;
  options.duration *= kFactor;
  for (AttackSpec& attack : options.attacks) {
    ScheduleSpec& schedule = attack.schedule;
    schedule.start *= kFactor;
    schedule.duration *= kFactor;
    for (auto& [start, duration] : schedule.sessions) {
      start *= kFactor;
      duration *= kFactor;
    }
  }
  return options;
}

ExperimentOptions paper_mixed_options() {
  ExperimentOptions options;  // defaults are already the paper's
  return options;
}

ExperimentOptions paper_single_attack_options(AttackKind kind) {
  ExperimentOptions options;
  options.attacks = single_attack_sessions(kind);
  return options;
}

std::vector<ScenarioConfig> experiment_configs(
    RoutingKind routing, TransportKind transport,
    const ExperimentOptions& raw_options) {
  const ExperimentOptions options =
      fast_mode_enabled() ? scaled(raw_options) : raw_options;

  ScenarioConfig base;
  base.routing = routing;
  base.transport = transport;
  base.duration = options.duration;

  // The full inventory, in presentation order: the training trace, the
  // normal evaluation traces, then the attack traces.
  std::vector<ScenarioConfig> configs;
  configs.reserve(1 + options.normal_eval_traces + options.abnormal_traces);
  {
    ScenarioConfig config = base;
    config.seed = options.base_seed;
    configs.push_back(config);
  }
  for (std::size_t i = 0; i < options.normal_eval_traces; ++i) {
    ScenarioConfig config = base;
    config.seed = options.base_seed + 1 + i;
    configs.push_back(config);
  }
  for (std::size_t i = 0; i < options.abnormal_traces; ++i) {
    ScenarioConfig config = base;
    config.seed = options.base_seed + 100 + i;
    config.attacks = options.attacks;
    configs.push_back(config);
  }
  return configs;
}

Result<ExperimentData> gather_inventory_checked(
    const std::vector<ScenarioConfig>& configs,
    const ExperimentOptions& options) {
  XFA_CHECK(!configs.empty()) << "a trace inventory needs a training trace";
  ExperimentData data;
  data.base_config = configs.front();
  data.base_config.seed = ScenarioConfig{}.seed;

  // Every trace simulation is an isolated world (see run_scenario_checked),
  // so the whole inventory is schedulable work: submit it all to the shared
  // pool and assemble results by slot index — the output is identical to a
  // serial loop for any pool size. The first failure cancels the
  // not-yet-started simulations.
  std::vector<Result<ScenarioResult>> results(
      configs.size(), Status{StatusCode::kRetryable, "cancelled"});
  {
    TaskGroup group(shared_pool());
    for (std::size_t i = 0; i < configs.size(); ++i) {
      group.submit([&configs, &results, &options, i] {
        results[i] = run_scenario_checked(configs[i], options.label_policy);
        return results[i].ok() ? Status::Ok() : results[i].status();
      });
    }
    if (Status status = group.wait(); !status.ok()) return status;
  }

  for (std::size_t i = 0; i < results.size(); ++i) {
    Result<ScenarioResult>& result = results[i];
    if (!result.ok()) return result.status();
    data.summaries.push_back(result->summary);
    if (i == 0) {
      data.train_normal = std::move(result->trace);
    } else if (i <= options.normal_eval_traces) {
      data.normal_eval.push_back(std::move(result->trace));
    } else {
      data.abnormal.push_back(std::move(result->trace));
    }
  }
  return data;
}

Result<ExperimentData> gather_experiment_checked(
    RoutingKind routing, TransportKind transport,
    const ExperimentOptions& options) {
  return gather_inventory_checked(
      experiment_configs(routing, transport, options), options);
}

Dataset to_dataset(DiscreteTrace trace, const FeatureSchema* schema) {
  Dataset data;
  data.rows = std::move(trace.rows);
  data.cardinality = std::move(trace.cardinality);
  if (schema != nullptr) data.names = schema->names();
  return data;
}

std::vector<double> project(const std::vector<EventScore>& scores,
                            ScoreKind kind) {
  std::vector<double> values;
  values.reserve(scores.size());
  for (const EventScore& score : scores) values.push_back(pick(score, kind));
  return values;
}

std::vector<EventScore> Detector::score_trace(const RawTrace& trace) const {
  // Each block is discretized straight into the column-major layout the
  // sub-models read: no per-row vectors, no transpose, no whole-trace copy.
  return model.score_all(
      trace.rows.size(), discretizer.columns(),
      [&](std::size_t first, std::size_t count, std::int32_t* out) {
        discretizer.transform_rows(trace, first, count, out, kScoreBlock);
      });
}

Result<Detector> train_detector_checked(const RawTrace& train_normal,
                                        const ClassifierFactory& factory,
                                        const DetectorOptions& options,
                                        const RawTrace* threshold_normal) {
  if (train_normal.rows.empty())
    return Status{StatusCode::kDegenerateData, "empty training trace"};
  Detector detector;
  detector.discretizer =
      EqualFrequencyDiscretizer(options.buckets, options.min_relative_gap);
  // "A pre-filtering process using a small random subset of normal vectors"
  // learns the frequency distribution; 500 samples are ample for 5 buckets.
  detector.discretizer.fit(train_normal.rows, /*max_fit_rows=*/500);
  const Dataset dataset = to_dataset(
      detector.discretizer.transform(train_normal), &detector.schema);

  // Label columns: everything classifiable, optionally restricted to the
  // requested sampling periods (Set I topology features always stay).
  std::vector<std::size_t> label_columns;
  if (options.periods.empty()) {
    label_columns = detector.schema.classifiable_columns();
  } else {
    for (std::size_t c = 1; c < detector.schema.traffic_base_column(); ++c)
      label_columns.push_back(c);
    const auto& specs = detector.schema.traffic_specs();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      if (std::find(options.periods.begin(), options.periods.end(),
                    specs[i].period) != options.periods.end())
        label_columns.push_back(detector.schema.traffic_base_column() + i);
    }
  }

  const Status trained = detector.model.train(
      dataset, label_columns, factory, options.selection);
  if (!trained.ok()) return trained;

  const std::vector<EventScore> calibration_scores =
      threshold_normal != nullptr
          ? detector.score_trace(*threshold_normal)
          : detector.model.score_all(dataset.rows);
  detector.threshold_match =
      select_threshold(project(calibration_scores, ScoreKind::MatchCount),
                       options.false_alarm_rate);
  detector.threshold_probability =
      select_threshold(project(calibration_scores, ScoreKind::Probability),
                       options.false_alarm_rate);
  return detector;
}

ClassifierFactory make_c45_factory() {
  return [] {
    // Slightly larger leaves than the library default: the cross-feature
    // sub-models need *calibrated* leaf probabilities (Algorithm 3 averages
    // them), and 2000-row traces overfit at tiny leaf sizes.
    C45Config config;
    config.min_split_samples = 16;
    return std::make_unique<C45>(config);
  };
}

ClassifierFactory make_ripper_factory() {
  return [] { return std::make_unique<Ripper>(); };
}

ClassifierFactory make_nbc_factory() {
  return [] { return std::make_unique<NaiveBayes>(); };
}

std::vector<NamedFactory> paper_classifiers() {
  return {
      {"C4.5", make_c45_factory()},
      {"RIPPER", make_ripper_factory()},
      {"NBC", make_nbc_factory()},
  };
}

std::vector<ScenarioCombo> paper_scenarios() {
  return {
      {RoutingKind::Aodv, TransportKind::Tcp, "AODV/TCP"},
      {RoutingKind::Aodv, TransportKind::Udp, "AODV/UDP"},
      {RoutingKind::Dsr, TransportKind::Tcp, "DSR/TCP"},
      {RoutingKind::Dsr, TransportKind::Udp, "DSR/UDP"},
  };
}

}  // namespace xfa
