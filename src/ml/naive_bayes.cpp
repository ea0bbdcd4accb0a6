#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "common/serial.h"
#include "ml/log2_cache.h"

namespace xfa {

void NaiveBayes::fit(const DatasetView& view,
                     const std::vector<std::size_t>& feature_columns,
                     std::size_t label_column) {
  XFA_CHECK_GT(view.rows(), 0u);
  feature_columns_ = feature_columns;
  const auto classes = static_cast<std::size_t>(view.cardinality(label_column));
  class_counts_.assign(classes, 0);
  total_ = static_cast<double>(view.rows());

  const std::span<const std::int32_t> label_data = view.column(label_column);
  for (std::size_t r = 0; r < view.rows(); ++r)
    class_counts_[static_cast<std::size_t>(label_data[r])] += 1.0;

  cond_offset_.resize(feature_columns_.size());
  feature_cardinality_.resize(feature_columns_.size());
  std::size_t flat_size = 0;
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    cond_offset_[f] = flat_size;
    feature_cardinality_[f] = view.cardinality(feature_columns_[f]);
    flat_size += classes * static_cast<std::size_t>(feature_cardinality_[f]);
  }
  cond_flat_.assign(flat_size, 0.0);

  // Column-major accumulation: one pass over (label, feature) column pairs.
  // Counts are integral +1.0 increments, so the totals are exactly the same
  // values the old row-major interleaved pass produced.
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    const std::span<const std::int32_t> col_data =
        view.column(feature_columns_[f]);
    const auto card = static_cast<std::size_t>(feature_cardinality_[f]);
    double* const table = cond_flat_.data() + cond_offset_[f];
    for (std::size_t r = 0; r < view.rows(); ++r) {
      table[static_cast<std::size_t>(label_data[r]) * card +
            static_cast<std::size_t>(col_data[r])] += 1.0;
    }
  }

  // Convert counts to the Laplace-smoothed log terms predict sums — the
  // exact doubles std::log produced per prediction before, computed once.
  // The memo collapses the heavily repeated (count+1)/denominator ratios to
  // one libm call each (bit-identical values).
  LnMemo log;
  prior_log_.resize(classes);
  for (std::size_t c = 0; c < classes; ++c)
    prior_log_[c] = log((class_counts_[c] + 1.0) /
                        (total_ + static_cast<double>(classes)));
  unseen_log_.resize(feature_columns_.size() * classes);
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    const auto card = static_cast<std::size_t>(feature_cardinality_[f]);
    double* const table = cond_flat_.data() + cond_offset_[f];
    for (std::size_t c = 0; c < classes; ++c) {
      const double denominator =
          class_counts_[c] + static_cast<double>(card);
      for (std::size_t v = 0; v < card; ++v)
        table[c * card + v] = log((table[c * card + v] + 1.0) /
                                  denominator);
      unseen_log_[f * classes + c] = log(1.0 / denominator);
    }
  }
}

std::span<const double> NaiveBayes::predict_dist(
    const std::vector<int>& row, std::span<double> scratch) const {
  XFA_CHECK(!class_counts_.empty()) << "predict before fit";
  const std::size_t classes = class_counts_.size();
  XFA_CHECK_GE(scratch.size(), classes) << "scoring scratch buffer too small";
  const std::span<double> out = scratch.first(classes);
  // Work in log space to avoid underflow across ~140 factors; `out` holds
  // the log scores, then is normalized in place. All log terms were
  // precomputed at fit time, so this is a pure table walk.
  for (std::size_t c = 0; c < classes; ++c) {
    out[c] = prior_log_[c];
    for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
      const auto card = static_cast<std::size_t>(feature_cardinality_[f]);
      const double* const table =
          cond_flat_.data() + cond_offset_[f] + c * card;
      const auto v = static_cast<std::size_t>(row[feature_columns_[f]]);
      out[c] += v < card ? table[v] : unseen_log_[f * classes + c];
    }
  }
  // Normalize: p(l_i|x) = n(l_i|x) / sum_k n(l_k|x).
  const double max_log = *std::max_element(out.begin(), out.end());
  double sum = 0;
  for (std::size_t c = 0; c < classes; ++c) {
    out[c] = std::exp(out[c] - max_log);
    sum += out[c];
  }
  for (std::size_t c = 0; c < classes; ++c) out[c] /= sum;
  return out;
}

Status NaiveBayes::save_state(SerialWriter& out) const {
  if (class_counts_.empty())
    return {StatusCode::kInvalidArgument, "NBC save before fit"};
  out.sizes(feature_columns_);
  out.doubles(class_counts_);
  out.doubles(cond_flat_);
  out.size(feature_cardinality_.size());
  for (const int card : feature_cardinality_)
    out.pod(static_cast<std::int32_t>(card));
  out.doubles(prior_log_);
  out.doubles(unseen_log_);
  out.pod(total_);
  return Status::Ok();
}

Status NaiveBayes::load_state(SerialReader& in, std::size_t max_columns) {
  constexpr std::int32_t kMaxCardinality = 1 << 20;
  const Status corrupt{StatusCode::kCorruptArtifact,
                       "NBC: malformed probability tables"};
  feature_columns_.clear();
  class_counts_.clear();
  cond_flat_.clear();
  cond_offset_.clear();
  feature_cardinality_.clear();
  prior_log_.clear();
  unseen_log_.clear();
  total_ = 0;

  std::vector<std::size_t> feature_columns;
  std::vector<double> class_counts, cond_flat, prior_log, unseen_log;
  if (!in.read_sizes(feature_columns)) return corrupt;
  for (const std::size_t column : feature_columns)
    if (column >= max_columns) return corrupt;
  if (!in.read_doubles(class_counts) || class_counts.empty()) return corrupt;
  if (!in.read_doubles(cond_flat)) return corrupt;
  std::size_t feature_count = 0;
  if (!in.read_size(feature_count) ||
      feature_count != feature_columns.size())
    return corrupt;
  std::vector<int> feature_cardinality(feature_count);
  for (std::size_t f = 0; f < feature_count; ++f) {
    std::int32_t card = 0;
    if (!in.read_pod(card) || card < 1 || card > kMaxCardinality)
      return corrupt;
    feature_cardinality[f] = card;
  }
  if (!in.read_doubles(prior_log) || !in.read_doubles(unseen_log))
    return corrupt;
  double total = 0;
  if (!in.read_pod(total)) return corrupt;

  // Rebuild the offsets from the cardinalities — never trusted from disk —
  // and require every derived size to match what predict will index, so a
  // hostile payload cannot shrink a table out from under the table walk.
  const std::size_t classes = class_counts.size();
  std::vector<std::size_t> cond_offset(feature_count);
  std::size_t flat_size = 0;
  for (std::size_t f = 0; f < feature_count; ++f) {
    cond_offset[f] = flat_size;
    flat_size += classes * static_cast<std::size_t>(feature_cardinality[f]);
    if (flat_size > cond_flat.size()) return corrupt;
  }
  if (flat_size != cond_flat.size()) return corrupt;
  if (prior_log.size() != classes) return corrupt;
  if (unseen_log.size() != feature_count * classes) return corrupt;

  feature_columns_ = std::move(feature_columns);
  class_counts_ = std::move(class_counts);
  cond_flat_ = std::move(cond_flat);
  cond_offset_ = std::move(cond_offset);
  feature_cardinality_ = std::move(feature_cardinality);
  prior_log_ = std::move(prior_log);
  unseen_log_ = std::move(unseen_log);
  total_ = total;
  return Status::Ok();
}

}  // namespace xfa
