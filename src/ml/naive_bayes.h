// Naive Bayes classifier over nominal attributes (the paper's NBC).
//
// Paper §3: the score for class l_i is n(l_i|x) = p(l_i) * prod_j p(a_j|l_i)
// and the output probability is the normalized score
// p(l_i|x) = n(l_i|x) / sum_k n(l_k|x). Conditional probabilities are
// Laplace-smoothed so unseen attribute values never zero out a class.
#pragma once

#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/dataset_view.h"

namespace xfa {

class NaiveBayes final : public Classifier {
 public:
  void fit(const DatasetView& view,
           const std::vector<std::size_t>& feature_columns,
           std::size_t label_column) override;
  /// Block kernel: per-(row, class) log-score accumulators in `scratch`,
  /// normalized in place; each row's span aliases its slice of `scratch`.
  void predict_block(const RowBlock& block, std::span<double> scratch,
                     std::span<std::span<const double>> dists) const override;
  const char* name() const override { return "NBC"; }
  std::size_t label_cardinality() const override {
    return class_counts_.size();
  }

 private:
  std::vector<std::size_t> feature_columns_;
  std::vector<double> class_counts_;
  // One Laplace-smoothed log table per feature, flattened into one buffer
  // and laid out [value 0..card-1, unseen][class]:
  // table_[table_offset_[f] + v * classes + class] = log((count + 1) /
  // (class_count + card)), and row v = card holds log(1 / (class_count +
  // card)) for values outside [0, card). A row's terms for one feature are
  // then contiguous, and predict is a pure table-sum — no std::log per
  // (class, feature).
  std::vector<double> table_;
  std::vector<std::size_t> table_offset_;  // per feature, into table_
  std::vector<int> feature_cardinality_;   // per feature
  std::vector<double> prior_log_;          // log class prior, per class
};

}  // namespace xfa
