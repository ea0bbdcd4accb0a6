// RIPPER rule learner (Cohen 1995), decision-list flavour.
//
// Classes are handled in order of increasing frequency; for each class an
// IREP*-style loop grows rules on 2/3 of the remaining data (FOIL gain),
// prunes them on the other 1/3 (coverage value (p-n)/(p+n)), and stops when
// pruned-rule precision drops below one half. The most frequent class is the
// default. Rule probabilities are the Laplace-smoothed class counts of the
// training examples each rule covers, per the paper §3 ("We calculate
// probability in a similar way for decision rule classifiers, e.g. RIPPER").
//
// Simplification vs. Cohen's full RIPPER: the MDL-based global optimization
// passes are omitted; the decision-list construction and grow/prune core are
// faithful. (Documented in DESIGN.md.)
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"
#include "ml/dataset_view.h"

namespace xfa {

struct RipperConfig {
  double grow_fraction = 2.0 / 3.0;
  double min_prune_precision = 0.5;
  std::size_t max_rules_per_class = 32;
  std::uint64_t shuffle_seed = 17;
};

class Ripper final : public Classifier {
 public:
  /// Aborts unless grow_fraction ∈ (0, 1] and min_prune_precision ∈ [0, 1].
  explicit Ripper(const RipperConfig& config = {});

  /// Grows, prunes and covers over the view's per-(column, value) row
  /// bitsets (DatasetView::row_bits): every p/n count is a popcount.
  void fit(const DatasetView& view,
           const std::vector<std::size_t>& feature_columns,
           std::size_t label_column) override;
  /// Block kernel: rows are bits of one 64-bit mask. A rule ANDs one
  /// equality mask per condition over the block, and a row retires at its
  /// first matching rule. The spans point at the rules' (or the default's)
  /// Laplace distributions cached at fit time; `scratch` is unused.
  void predict_block(const RowBlock& block, std::span<double> scratch,
                     std::span<std::span<const double>> dists) const override;
  const char* name() const override { return "RIPPER"; }
  std::size_t label_cardinality() const override {
    return label_cardinality_ > 0
               ? static_cast<std::size_t>(label_cardinality_)
               : 0;
  }

  std::size_t rule_count() const { return rules_.size(); }

  /// Ordered rule-list rendering ("IF f3=2 AND f7=0 THEN class 1 ...").
  std::string describe(
      const std::vector<std::string>& feature_names) const override;

 private:
  struct Condition {
    std::size_t column = 0;
    int value = 0;
  };
  struct Rule {
    std::vector<Condition> conditions;
    int target_class = 0;
    std::vector<double> class_counts;  // training examples covered, per class
    std::vector<double> dist;          // cached Laplace distribution
  };

  RipperConfig config_;
  std::vector<Rule> rules_;           // ordered decision list
  std::vector<double> default_counts_;
  std::vector<double> default_dist_;  // cached Laplace distribution
  int label_cardinality_ = 0;
};

}  // namespace xfa
