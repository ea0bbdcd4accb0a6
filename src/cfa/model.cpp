#include "cfa/model.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <span>
#include <tuple>

#include "common/check.h"
#include "exec/parallel_for.h"
#include "ml/dataset_view.h"

namespace xfa {

namespace {

/// A column with a single observed value cannot be predicted *discriminatively*
/// and (worse) trains sub-models that memorize the constant — under benign
/// faults such columns appear routinely (e.g. frozen counters during long
/// loss bursts), so they are skipped rather than fatal.
bool is_constant_column(std::span<const std::int32_t> column) {
  const std::int32_t first = column.front();
  for (const std::int32_t v : column)
    if (v != first) return false;
  return true;
}

/// What one sub-model C_i says about an event whose f_i(x) is `truth`.
struct SubmodelReading {
  int predicted = 0;       // argmax class: Algorithm 2 matches iff == truth
  double probability = 0;  // p(f_i(x)|x), Algorithm 3; 0 for an unseen value
};

SubmodelReading read_submodel(std::span<const double> dist, int truth) {
  SubmodelReading reading;
  reading.predicted = static_cast<int>(argmax(dist));
  if (truth >= 0 && static_cast<std::size_t>(truth) < dist.size())
    reading.probability = dist[static_cast<std::size_t>(truth)];
  return reading;
}

}  // namespace

Status CrossFeatureModel::train(const Dataset& normal_data,
                                const std::vector<std::size_t>& label_columns,
                                const ClassifierFactory& factory) {
  return train(normal_data, label_columns, factory, FeatureSelectionConfig{});
}

Status CrossFeatureModel::train(const Dataset& normal_data,
                                const std::vector<std::size_t>& label_columns,
                                const ClassifierFactory& factory,
                                const FeatureSelectionConfig& selection) {
  if (normal_data.rows.empty())
    return {StatusCode::kDegenerateData, "no training rows"};
  if (label_columns.empty())
    return {StatusCode::kInvalidArgument, "no label columns"};
  for (const std::size_t col : label_columns)
    if (col >= normal_data.columns())
      return {StatusCode::kInvalidArgument, "label column out of range"};

  // One column-major view, built once and shared (read-only) by the ranking
  // pass and all L sub-model fits — the per-fit row-table walk was the
  // training hot spot.
  const DatasetView view(normal_data);

  std::vector<std::size_t> survivors;
  std::vector<std::size_t> skipped;
  survivors.reserve(label_columns.size());
  for (const std::size_t col : label_columns) {
    if (is_constant_column(view.column(col))) {
      skipped.push_back(col);
    } else {
      survivors.push_back(col);
    }
  }
  if (survivors.empty())
    return {StatusCode::kTrainFailed,
            "every label column is constant; no sub-model can discriminate"};

  // Selection stage (DESIGN.md §16): rank the non-degenerate candidates,
  // keep the top-k above the score floor, and funnel everything the ranker
  // drops through the same skipped-column path degenerate columns take —
  // the Algorithm 2/3 renormalization below then covers both causes
  // identically. A cap covering every candidate leaves `survivors`
  // untouched, so k = all trains bit-identically to no selection.
  FeatureRanking ranking;
  std::vector<std::size_t> selected_out;
  if (selection.active()) {
    ranking = rank_features(view, survivors, selection, factory);
    std::vector<std::size_t> selected =
        select_columns(ranking, selection.top_k, selection.min_score);
    if (selected.empty())
      return {StatusCode::kTrainFailed,
              "feature selection left no sub-model (floor too high?)"};
    selected_out.reserve(survivors.size() - selected.size());
    for (const std::size_t col : survivors)
      if (!std::binary_search(selected.begin(), selected.end(), col))
        selected_out.push_back(col);
    skipped.insert(skipped.end(), selected_out.begin(), selected_out.end());
    survivors = std::move(selected);
  }

  label_columns_ = std::move(survivors);
  skipped_columns_ = std::move(skipped);
  selection_config_ = selection;
  ranking_ = std::move(ranking);
  selected_out_ = std::move(selected_out);
  submodels_.clear();
  submodels_.resize(label_columns_.size());
  max_dist_size_ = 0;
  schema_width_ = 0;
  for (const std::size_t col : label_columns_) {
    max_dist_size_ = std::max(
        max_dist_size_, static_cast<std::size_t>(view.cardinality(col)));
    schema_width_ = std::max(schema_width_, col + 1);
  }

  // One sub-model fit per index, written to its own slot — byte-identical
  // for any worker count. Each sub-model with respect to f_i uses every
  // other label column as input features.
  const auto fit_submodel = [&](std::size_t i) {
    std::vector<std::size_t> features;
    features.reserve(label_columns_.size() - 1);
    for (const std::size_t col : label_columns_)
      if (col != label_columns_[i]) features.push_back(col);
    auto classifier = factory();
    classifier->fit(view, features, label_columns_[i]);
    submodels_[i] = std::move(classifier);
  };
  parallel_for(shared_pool(), label_columns_.size(), fit_submodel);
  return Status::Ok();
}

void CrossFeatureModel::score_block(const RowBlock& block,
                                    std::span<double> scratch,
                                    EventScore* out) const {
  std::array<std::span<const double>, kScoreBlock> dists;
  std::array<double, kScoreBlock> matches{};
  std::array<double, kScoreBlock> probabilities{};
  const std::span<std::span<const double>> block_dists(dists.data(),
                                                       block.rows);
  for (std::size_t i = 0; i < submodels_.size(); ++i) {
    submodels_[i]->predict_block(block, scratch, block_dists);
    const std::int32_t* const truth = block.column(label_columns_[i]);
    for (std::size_t r = 0; r < block.rows; ++r) {
      const SubmodelReading reading = read_submodel(dists[r], truth[r]);
      if (reading.predicted == truth[r]) matches[r] += 1.0;
      probabilities[r] += reading.probability;
    }
  }
  const auto count = static_cast<double>(submodels_.size());
  for (std::size_t r = 0; r < block.rows; ++r)
    out[r] = {matches[r] / count, probabilities[r] / count};
}

EventScore CrossFeatureModel::score(const std::vector<int>& row) const {
  XFA_CHECK(trained());
  // Checked before ANY sub-model predicts: every sub-model reads the other
  // label columns as features, so a narrow row must be rejected up front,
  // not when the loop happens to reach an out-of-range label column.
  XFA_CHECK_LE(schema_width_, row.size())
      << "row narrower than the trained schema";
  // Reused across calls (per thread) so single-event scoring in a loop is
  // allocation-free; sized per model.
  thread_local std::vector<double> scratch;
  scratch.resize(max_dist_size_);
  EventScore score;
  score_block(RowBlock{row.data(), 1, 1}, scratch, &score);
  return score;
}

std::vector<CrossFeatureModel::SubmodelVerdict> CrossFeatureModel::explain(
    const std::vector<int>& row) const {
  XFA_CHECK(trained());
  XFA_CHECK_LE(schema_width_, row.size())
      << "row narrower than the trained schema";
  std::vector<SubmodelVerdict> verdicts;
  verdicts.reserve(submodels_.size());
  std::vector<double> scratch(max_dist_size_);
  for (std::size_t i = 0; i < submodels_.size(); ++i) {
    SubmodelVerdict verdict;
    verdict.label_column = label_columns_[i];
    verdict.observed = row[label_columns_[i]];
    const SubmodelReading reading = read_submodel(
        submodels_[i]->predict_dist(row, scratch), verdict.observed);
    verdict.predicted = reading.predicted;
    verdict.matched = verdict.predicted == verdict.observed;
    verdict.probability = reading.probability;
    verdicts.push_back(verdict);
  }
  // Label columns are distinct, so this order is total: equally probable
  // sub-models come out in ascending label column, whatever order they
  // were trained in.
  std::sort(verdicts.begin(), verdicts.end(),
            [](const SubmodelVerdict& a, const SubmodelVerdict& b) {
              return std::tie(a.probability, a.label_column) <
                     std::tie(b.probability, b.label_column);
            });
  return verdicts;
}

std::vector<EventScore> CrossFeatureModel::score_all(
    const std::vector<std::vector<int>>& rows) const {
  for (const std::vector<int>& row : rows)
    XFA_CHECK_LE(schema_width_, row.size())
        << "row narrower than the trained schema";
  // Only the columns a sub-model reads are transposed.
  return score_all(rows.size(), schema_width_,
                   [&](std::size_t first, std::size_t count,
                       std::int32_t* out) {
                     for (std::size_t r = 0; r < count; ++r)
                       for (std::size_t c = 0; c < schema_width_; ++c)
                         out[c * kScoreBlock + r] = rows[first + r][c];
                   });
}

std::vector<EventScore> CrossFeatureModel::score_all(
    std::size_t rows, std::size_t columns, const BlockFill& fill) const {
  std::vector<EventScore> scores(rows);
  if (rows == 0) return scores;
  XFA_CHECK(trained());
  XFA_CHECK_LE(schema_width_, columns)
      << "matrix narrower than the trained schema";
  // Each block task owns its block and scratch buffers and writes only its
  // own slots; per-row arithmetic does not depend on the blocking, so the
  // output is byte-identical for any pool size (including the serial case).
  const std::size_t blocks = (rows + kScoreBlock - 1) / kScoreBlock;
  parallel_for(shared_pool(), blocks, [&](std::size_t b) {
    std::vector<std::int32_t> values(kScoreBlock * columns);
    std::vector<double> scratch(kScoreBlock * max_dist_size_);
    const std::size_t first = b * kScoreBlock;
    const std::size_t count = std::min(kScoreBlock, rows - first);
    fill(first, count, values.data());
    score_block(RowBlock{values.data(), kScoreBlock, count}, scratch,
                scores.data() + first);
  });
  return scores;
}

void CrossFeatureRegressionModel::train(
    const std::vector<std::vector<double>>& normal_rows,
    const std::vector<std::size_t>& label_columns) {
  XFA_CHECK(!normal_rows.empty());
  for (const std::size_t col : label_columns)
    XFA_CHECK_LT(col, normal_rows.front().size())
        << "label column out of range";
  label_columns_ = label_columns;
  submodels_.assign(label_columns_.size(), LinearRegression{});

  for (std::size_t i = 0; i < label_columns_.size(); ++i) {
    std::vector<std::vector<double>> x;
    std::vector<double> y;
    x.reserve(normal_rows.size());
    y.reserve(normal_rows.size());
    for (const auto& row : normal_rows) {
      std::vector<double> features;
      features.reserve(label_columns_.size() - 1);
      for (const std::size_t col : label_columns_)
        if (col != label_columns_[i]) features.push_back(row[col]);
      x.push_back(std::move(features));
      y.push_back(row[label_columns_[i]]);
    }
    submodels_[i].fit(x, y);
  }
}

double CrossFeatureRegressionModel::mean_log_distance(
    const std::vector<double>& row) const {
  XFA_CHECK(trained());
  double total = 0;
  // One feature buffer reused across sub-models (hot path: called per row).
  std::vector<double> features;
  features.reserve(label_columns_.size() - 1);
  for (std::size_t i = 0; i < label_columns_.size(); ++i) {
    features.clear();
    for (const std::size_t col : label_columns_)
      if (col != label_columns_[i]) features.push_back(row[col]);
    total += LinearRegression::log_distance(submodels_[i].predict(features),
                                            row[label_columns_[i]]);
  }
  return total / static_cast<double>(label_columns_.size());
}

double CrossFeatureRegressionModel::score(
    const std::vector<double>& row) const {
  return std::exp(-mean_log_distance(row));
}

}  // namespace xfa
