#include "ml/naive_bayes.h"

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "common/check.h"
#include "ml/log2_cache.h"

namespace xfa {

void NaiveBayes::fit(const DatasetView& view,
                     const std::vector<std::size_t>& feature_columns,
                     std::size_t label_column) {
  XFA_CHECK_GT(view.rows(), 0u);
  feature_columns_ = feature_columns;
  const auto classes = static_cast<std::size_t>(view.cardinality(label_column));
  class_counts_.assign(classes, 0);
  const auto total = static_cast<double>(view.rows());

  const std::span<const std::int32_t> label_data = view.column(label_column);
  for (std::size_t r = 0; r < view.rows(); ++r)
    class_counts_[static_cast<std::size_t>(label_data[r])] += 1.0;

  table_offset_.resize(feature_columns_.size());
  feature_cardinality_.resize(feature_columns_.size());
  std::size_t table_size = 0;
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    table_offset_[f] = table_size;
    feature_cardinality_[f] = view.cardinality(feature_columns_[f]);
    table_size +=
        (static_cast<std::size_t>(feature_cardinality_[f]) + 1) * classes;
  }
  table_.assign(table_size, 0.0);

  // Column-major accumulation: one pass over (label, feature) column pairs.
  // Counts are integral +1.0 increments, so every total is exact.
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    const std::span<const std::int32_t> col_data =
        view.column(feature_columns_[f]);
    double* const table = table_.data() + table_offset_[f];
    for (std::size_t r = 0; r < view.rows(); ++r) {
      table[static_cast<std::size_t>(col_data[r]) * classes +
            static_cast<std::size_t>(label_data[r])] += 1.0;
    }
  }

  // Convert counts to the Laplace-smoothed log terms predict sums, computed
  // once. The memo collapses the heavily repeated (count+1)/denominator
  // ratios to one libm call each (bit-identical values).
  LnMemo log;
  prior_log_.resize(classes);
  for (std::size_t c = 0; c < classes; ++c)
    prior_log_[c] = log((class_counts_[c] + 1.0) /
                        (total + static_cast<double>(classes)));
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    const auto card = static_cast<std::size_t>(feature_cardinality_[f]);
    double* const table = table_.data() + table_offset_[f];
    for (std::size_t c = 0; c < classes; ++c) {
      const double denominator =
          class_counts_[c] + static_cast<double>(card);
      for (std::size_t v = 0; v < card; ++v)
        table[v * classes + c] =
            log((table[v * classes + c] + 1.0) / denominator);
      table[card * classes + c] = log(1.0 / denominator);
    }
  }
}

void NaiveBayes::predict_block(const RowBlock& block,
                               std::span<double> scratch,
                               std::span<std::span<const double>> dists) const {
  XFA_CHECK(!class_counts_.empty()) << "predict before fit";
  const std::size_t classes = class_counts_.size();
  const std::size_t rows = block.rows;
  XFA_CHECK_GE(scratch.size(), rows * classes)
      << "scoring scratch buffer too small";
  XFA_CHECK_GE(dists.size(), rows);
  // Log space avoids underflow across ~140 factors. acc[r * classes + c] is
  // one accumulator per (row, class): it starts at the class prior and adds
  // one table term per feature, in feature order — the additions a one-row
  // block makes, in the same order, so every sum is bit-identical whatever
  // the block size. Walking features outside and rows inside turns one long
  // dependent add chain per (row, class) into rows * classes independent
  // ones, and keeps one feature's table hot for the whole block.
  double* const acc = scratch.data();
  for (std::size_t r = 0; r < rows; ++r)
    std::copy(prior_log_.begin(), prior_log_.end(), acc + r * classes);
  for (std::size_t f = 0; f < feature_columns_.size(); ++f) {
    const std::int32_t* const values = block.column(feature_columns_[f]);
    const double* const table = table_.data() + table_offset_[f];
    // Negative values wrap to huge unsigned ones: both land on the unseen
    // row, like any value >= the cardinality.
    const auto unseen = static_cast<std::uint32_t>(feature_cardinality_[f]);
    for (std::size_t r = 0; r < rows; ++r) {
      const double* const term =
          table +
          std::min(static_cast<std::uint32_t>(values[r]), unseen) * classes;
      double* const row_acc = acc + r * classes;
      for (std::size_t c = 0; c < classes; ++c) row_acc[c] += term[c];
    }
  }
  // Normalize: p(l_i|x) = n(l_i|x) / sum_k n(l_k|x).
  for (std::size_t r = 0; r < rows; ++r) {
    const std::span<double> out(acc + r * classes, classes);
    const double max_log = *std::max_element(out.begin(), out.end());
    double sum = 0;
    for (std::size_t c = 0; c < classes; ++c) {
      out[c] = std::exp(out[c] - max_log);
      sum += out[c];
    }
    for (std::size_t c = 0; c < classes; ++c) out[c] /= sum;
    dists[r] = out;
  }
}

}  // namespace xfa
