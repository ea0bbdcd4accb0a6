// Cross-feature analysis (the paper's contribution, §3).
//
// Training (Algorithm 1): for every feature f_i, train a sub-model
// C_i : {f_1..f_L} \ {f_i} -> f_i on normal data only.
//
// Testing: apply the event to all L sub-models and combine:
//  * average match count (Algorithm 2):  sum_i [[C_i(x) = f_i(x)]] / L
//  * average probability (Algorithm 3):  sum_i p(f_i(x)|x) / L
// An event is an anomaly iff the chosen score falls below the decision
// threshold.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "features/discretize.h"
#include "ml/dataset.h"
#include "ml/feature_select.h"
#include "ml/linreg.h"

namespace xfa {

/// Both combined scores for one event.
struct EventScore {
  double avg_match_count = 0;
  double avg_probability = 0;
};

/// Which of the two combination rules drives the anomaly decision.
enum class ScoreKind { MatchCount, Probability };

inline double pick(const EventScore& score, ScoreKind kind) {
  return kind == ScoreKind::MatchCount ? score.avg_match_count
                                       : score.avg_probability;
}

class CrossFeatureModel {
 public:
  /// Algorithm 1. `label_columns` are the features to build sub-models for
  /// (the classifiable columns of the schema — time is excluded upstream);
  /// each sub-model uses all the *other* label columns as its inputs.
  /// Sub-model fits run on the shared execution pool (src/exec); results
  /// are byte-identical for any pool size.
  ///
  /// Degrades gracefully: a label column that is constant over the training
  /// data (the typical casualty of benign network faults — e.g. a counter
  /// that never fires under loss bursts) admits no discriminative sub-model
  /// C_i, so it is skipped, recorded in skipped_columns(), and excluded from
  /// every surviving sub-model's inputs; the Algorithm 2/3 averages then
  /// renormalize over the survivors (score() divides by the survivor count).
  /// Returns kDegenerateData/kInvalidArgument on unusable input and
  /// kTrainFailed when no sub-model survives; the model stays untrained.
  Status train(const Dataset& normal_data,
               const std::vector<std::size_t>& label_columns,
               const ClassifierFactory& factory);

  /// Selection-aware Algorithm 1 (DESIGN.md §16): ranks the non-degenerate
  /// label columns with `selection.ranker`, keeps the top `selection.top_k`
  /// above the `selection.min_score` floor, and trains only the survivors.
  /// Columns the selector drops flow through the exact same skipped-column
  /// machinery as degenerate columns — they land in skipped_columns(), are
  /// excluded from every surviving sub-model's inputs, and the Algorithm
  /// 2/3 averages renormalize over the survivors — so scoring, explain()
  /// and thresholds stay consistent. An inactive config (FeatureRanker::
  /// None) or a cap covering every candidate trains a model bit-identical
  /// to the plain overload. kTrainFailed when selection leaves no column.
  Status train(const Dataset& normal_data,
               const std::vector<std::size_t>& label_columns,
               const ClassifierFactory& factory,
               const FeatureSelectionConfig& selection);

  /// The selection overload with a trailing thread count, which is ignored:
  /// only the benchmark driver (perf/xfa_perf.cpp) still spells it. Delete
  /// together with DetectorOptions::threads once that driver stops.
  Status train(const Dataset& normal_data,
               const std::vector<std::size_t>& label_columns,
               const ClassifierFactory& factory,
               const FeatureSelectionConfig& selection,
               std::size_t /*ignored*/) {
    return train(normal_data, label_columns, factory, selection);
  }

  bool trained() const { return !submodels_.empty(); }
  /// Label columns skipped by the last successful train() — degenerate
  /// (constant) columns first in label order, then selection casualties in
  /// ascending column order.
  const std::vector<std::size_t>& skipped_columns() const {
    return skipped_columns_;
  }
  /// The selection config the last train() ran with (ranker None when
  /// selection was off).
  const FeatureSelectionConfig& selection() const { return selection_config_; }
  /// Ranker output for the last train(): every non-degenerate candidate
  /// with its score, descending. Empty when selection was off.
  const FeatureRanking& ranking() const { return ranking_; }
  /// The subset of skipped_columns() dropped by selection (not degeneracy),
  /// ascending.
  const std::vector<std::size_t>& selected_out_columns() const {
    return selected_out_;
  }
  std::size_t submodel_count() const { return submodels_.size(); }
  /// 1 + the widest column index any sub-model reads; score() rows must be
  /// at least this wide.
  std::size_t schema_width() const { return schema_width_; }
  std::size_t label_column_of(std::size_t submodel) const {
    return label_columns_[submodel];
  }
  const Classifier& submodel(std::size_t index) const {
    return *submodels_[index];
  }

  /// Algorithms 2 and 3 for one event (computed together in one pass).
  EventScore score(const std::vector<int>& row) const;

  /// Per-sub-model verdicts for one event — the alert explanation: which
  /// labelled features deviated from their predicted values and how
  /// improbable the observed value was.
  struct SubmodelVerdict {
    std::size_t label_column = 0;
    bool matched = false;        // Algorithm-2 contribution
    double probability = 0;      // Algorithm-3 contribution, p(f_i(x)|x)
    int observed = 0;
    int predicted = 0;
  };

  /// Verdicts sorted by ascending probability (most anomalous first).
  std::vector<SubmodelVerdict> explain(const std::vector<int>& row) const;

  /// Scores every row of a trace/dataset (row-major; rows at least
  /// schema_width() wide), transposing one block at a time.
  std::vector<EventScore> score_all(
      const std::vector<std::vector<int>>& rows) const;

  /// Writes rows [first, first + count) of the caller's event matrix as a
  /// column-major block: row first + r, column c at out[c * kScoreBlock + r]
  /// for every c below the `columns` given to score_all. Called
  /// concurrently from pool workers.
  using BlockFill = std::function<void(std::size_t first, std::size_t count,
                                       std::int32_t* out)>;

  /// Scores `rows` events of `columns` (>= schema_width()) values each,
  /// fetched through `fill` kScoreBlock rows at a time straight into the
  /// layout the sub-models read. Blocks are scored in parallel on the
  /// shared pool with slot-indexed writes, so the result is byte-identical
  /// to per-row score() for any thread count.
  std::vector<EventScore> score_all(std::size_t rows, std::size_t columns,
                                    const BlockFill& fill) const;

 private:
  /// Algorithms 2 and 3 for every row of `block`, into out[0, block.rows).
  /// Each sub-model scores the whole block in turn, and each row's two sums
  /// take one term per sub-model in sub-model order — exactly the additions
  /// a one-row block makes — so scores do not depend on the blocking.
  /// `scratch` holds block.rows * max_dist_size_ doubles.
  void score_block(const RowBlock& block, std::span<double> scratch,
                   EventScore* out) const;

  std::vector<std::size_t> label_columns_;
  std::vector<std::size_t> skipped_columns_;
  std::vector<std::unique_ptr<Classifier>> submodels_;
  FeatureSelectionConfig selection_config_;  // ranker None when inactive
  FeatureRanking ranking_;                   // empty when inactive
  std::vector<std::size_t> selected_out_;    // selection's share of skipped
  std::size_t max_dist_size_ = 0;  // widest sub-model label cardinality
  std::size_t schema_width_ = 0;   // 1 + widest trained column index
};

/// Continuous-feature extension (§3): one multiple-linear-regression
/// sub-model per feature, deviation measured by |log(C_i(x)/f_i(x))|. The
/// combined score maps mean log-distance into (0, 1] via exp(-d) so that the
/// same "below threshold == anomaly" convention applies.
class CrossFeatureRegressionModel {
 public:
  void train(const std::vector<std::vector<double>>& normal_rows,
             const std::vector<std::size_t>& label_columns);

  bool trained() const { return !submodels_.empty(); }
  std::size_t submodel_count() const { return submodels_.size(); }

  /// Mean log distance across sub-models (lower = more normal).
  double mean_log_distance(const std::vector<double>& row) const;

  /// exp(-mean_log_distance), in (0, 1]; higher = more normal.
  double score(const std::vector<double>& row) const;

 private:
  std::vector<std::size_t> label_columns_;
  std::vector<LinearRegression> submodels_;
};

}  // namespace xfa
