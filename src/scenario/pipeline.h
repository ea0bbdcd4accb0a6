// Experiment pipeline: the glue every bench and example shares.
//
// gather_experiment_checked() produces the paper's trace inventory for one
// scenario (one normal training trace, several normal evaluation traces,
// several attack traces); train_detector_checked() runs Algorithm 1 +
// threshold selection; score helpers apply Algorithms 2/3 to whole traces.
// Callers with no recovery of their own take `.value()`, which aborts with
// the failure's Status.
#pragma once

#include <string>
#include <vector>

#include "cfa/model.h"
#include "common/status.h"
#include "cfa/threshold.h"
#include "features/discretize.h"
#include "features/schema.h"
#include "scenario/runner.h"

namespace xfa {

struct ExperimentOptions {
  std::size_t normal_eval_traces = 3;
  std::size_t abnormal_traces = 3;
  /// Attacks injected into the abnormal traces; defaults to the paper's
  /// mixed black hole @2500 s + selective dropping @5000 s.
  std::vector<AttackSpec> attacks = mixed_attacks();
  SimTime duration = 10000;
  std::uint64_t base_seed = 1000;
  LabelPolicy label_policy = LabelPolicy::OnsetOnwards;
};

/// True when the environment requests scaled-down experiments (XFA_FAST=1):
/// experiment_configs() then applies scaled() to its options.
bool fast_mode_enabled();

/// Canonical options for the paper's mixed-intrusion evaluation (Figures
/// 1-4): 10^4-second traces, black hole @2500 s + selective dropping
/// @5000 s, 3 normal evaluation traces, 3 attack traces. Every bench uses
/// exactly these so the trace cache is shared.
ExperimentOptions paper_mixed_options();

/// Canonical options for the per-attack evaluation (Figures 5-6): one attack
/// type, three 100-second sessions at 2500/5000/7500 s.
ExperimentOptions paper_single_attack_options(AttackKind kind);

/// Fast mode: divides the duration and all schedule times by 4 (keeps onset
/// proportions).
ExperimentOptions scaled(ExperimentOptions options);

/// The exact trace inventory gather_experiment_checked() simulates for one
/// scenario, in presentation order: the training trace, the normal
/// evaluation traces, then the attack traces. Applies the same fast-mode
/// scaling as the gather, so the returned configs carry the cache keys the
/// gather will hit.
std::vector<ScenarioConfig> experiment_configs(RoutingKind routing,
                                               TransportKind transport,
                                               const ExperimentOptions& options);

struct ExperimentData {
  ScenarioConfig base_config;  // the training-trace config
  RawTrace train_normal;
  std::vector<RawTrace> normal_eval;
  std::vector<RawTrace> abnormal;
  std::vector<ScenarioSummary> summaries;  // train, then eval, then abnormal
};

/// Simulates (or loads) a trace inventory laid out like
/// experiment_configs(): configs[0] (required) is the training trace, the
/// next `options.normal_eval_traces` are normal evaluation traces, the rest
/// are attack traces; labels follow `options.label_policy`. Propagates any
/// scenario failure (after the runner's bounded retries) instead of
/// aborting. All trace simulations run concurrently on the shared execution
/// pool (src/exec) — results are assembled by slot, so the inventory is
/// byte-identical for any pool size — and the first hard failure cancels
/// the simulations that have not started yet.
Result<ExperimentData> gather_inventory_checked(
    const std::vector<ScenarioConfig>& configs,
    const ExperimentOptions& options);

/// gather_inventory_checked over experiment_configs(routing, transport,
/// options): the full trace inventory for one scenario.
Result<ExperimentData> gather_experiment_checked(
    RoutingKind routing, TransportKind transport,
    const ExperimentOptions& options);

/// A trained cross-feature detector: discretizer + L sub-models + the two
/// thresholds (one per combination rule), selected on the training trace at
/// the given confidence level.
struct Detector {
  FeatureSchema schema = FeatureSchema::standard();
  EqualFrequencyDiscretizer discretizer;
  CrossFeatureModel model;
  double threshold_match = 0;
  double threshold_probability = 0;

  double threshold(ScoreKind kind) const {
    return kind == ScoreKind::MatchCount ? threshold_match
                                         : threshold_probability;
  }

  /// Discretizes and scores a raw trace.
  std::vector<EventScore> score_trace(const RawTrace& trace) const;
};

struct DetectorOptions {
  int buckets = 5;                 // paper: "we choose the bucket number to be 5"
  double min_relative_gap = 0.25;  // discretizer cut-separation guard
  double false_alarm_rate = 0.02;  // confidence level = 1 - FAR
  /// Ignored: training always runs on the shared pool. Kept only because
  /// the benchmark driver (perf/xfa_perf.cpp) still reads it.
  std::size_t threads = 0;
  /// Sampling periods to keep (ablation B); empty = the standard {5,60,900}.
  std::vector<SimTime> periods;
  /// Feature-selection stage (DESIGN.md §16): rank the classifiable columns
  /// and train only the top-k sub-models. Default (ranker None) trains the
  /// full width, bit-identical to the pre-selection pipeline.
  FeatureSelectionConfig selection;
};

/// Algorithm 1 + threshold selection. Thresholds are the FAR-quantile of
/// scores on `threshold_normal` when given (a held-out normal trace — the
/// paper's "computing [score] values on all normal events"), otherwise of
/// the in-sample training scores.
///
/// Degrades gracefully with the cross-feature model: degenerate feature
/// columns are skipped (detector.model.skipped_columns()) and the ensemble
/// renormalizes over the survivors; an unusable training trace surfaces as
/// kDegenerateData / kTrainFailed instead of aborting.
Result<Detector> train_detector_checked(
    const RawTrace& train_normal, const ClassifierFactory& factory,
    const DetectorOptions& options = {},
    const RawTrace* threshold_normal = nullptr);

/// Converts a discretized trace into the classifier Dataset format (pass
/// an rvalue to move the rows instead of copying them).
Dataset to_dataset(DiscreteTrace trace, const FeatureSchema* schema = nullptr);

/// Projects one score kind out of per-event scores.
std::vector<double> project(const std::vector<EventScore>& scores,
                            ScoreKind kind);

/// Standard classifier factories used across the evaluation.
ClassifierFactory make_c45_factory();
ClassifierFactory make_ripper_factory();
ClassifierFactory make_nbc_factory();

struct NamedFactory {
  std::string name;
  ClassifierFactory factory;
};
/// The paper's three classifiers, in presentation order.
std::vector<NamedFactory> paper_classifiers();

/// The paper's four scenario combinations, in presentation order.
struct ScenarioCombo {
  RoutingKind routing;
  TransportKind transport;
  std::string name;  // e.g. "AODV/TCP"
};
std::vector<ScenarioCombo> paper_scenarios();

}  // namespace xfa
