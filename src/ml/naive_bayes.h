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
  /// Writes the normalized scores into the front of `scratch` and returns a
  /// span over them.
  std::span<const double> predict_dist(
      const std::vector<int>& row, std::span<double> scratch) const override;
  const char* name() const override { return "NBC"; }
  std::size_t label_cardinality() const override {
    return class_counts_.size();
  }

  /// Table serialization (ml/model_io.h). The log-space tables round-trip as
  /// raw doubles, so restored predictions are bit-identical; the per-feature
  /// offsets are recomputed (never trusted) and every size invariant is
  /// re-validated on load.
  Status save_state(SerialWriter& out) const override;
  Status load_state(SerialReader& in, std::size_t max_columns) override;

 private:
  std::vector<std::size_t> feature_columns_;
  std::vector<double> class_counts_;
  // Conditional tables, flattened into one contiguous buffer:
  // cond_flat_[cond_offset_[f] + class*cardinality(f) + value]. During fit
  // they accumulate counts; fit then converts them in place to the
  // Laplace-smoothed *log* terms log((count+1)/(class_count+cardinality)),
  // so predict is a pure table-sum — no std::log per (class, feature).
  std::vector<double> cond_flat_;
  std::vector<std::size_t> cond_offset_;    // per feature, into cond_flat_
  std::vector<int> feature_cardinality_;    // per feature
  std::vector<double> prior_log_;           // log class prior, per class
  std::vector<double> unseen_log_;          // log term for out-of-range
                                            // values, [f * classes + class]
  double total_ = 0;
};

}  // namespace xfa
