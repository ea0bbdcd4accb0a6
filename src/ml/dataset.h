// Discrete dataset and the classifier interface shared by C4.5, RIPPER and
// the naive Bayes classifier.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace xfa {

class DatasetView;

/// A table of nominal (bucket-indexed) values. Every classifier consumes
/// it through a DatasetView; which column acts as the label is chosen per
/// fit() call, which is exactly what cross-feature analysis needs.
struct Dataset {
  std::vector<std::vector<int>> rows;  // row-major
  std::vector<int> cardinality;        // per column: values are [0, card)
  std::vector<std::string> names;      // optional column names

  std::size_t size() const { return rows.size(); }
  std::size_t columns() const { return cardinality.size(); }
};

/// Rows scored per block: one RIPPER row bitmask word.
inline constexpr std::size_t kScoreBlock = 64;

/// Up to kScoreBlock rows of a column-major matrix in the DatasetView
/// layout: the value of row r in column c sits at values[c * stride + r].
/// It must cover every column the classifier reads. A full-width row-major
/// row is the one-row block with stride 1.
struct RowBlock {
  const std::int32_t* values = nullptr;
  std::size_t stride = 0;  // distance between consecutive columns
  std::size_t rows = 0;    // 1..kScoreBlock

  const std::int32_t* column(std::size_t c) const {
    return values + c * stride;
  }
};

/// Supervised classifier over nominal features with probabilistic output.
class Classifier {
 public:
  virtual ~Classifier() = default;

  /// Trains to predict column `label_column` of `view` from
  /// `feature_columns`, which must not contain `label_column`. The
  /// cross-feature model builds one view and shares it across all L
  /// sub-model fits.
  virtual void fit(const DatasetView& view,
                   const std::vector<std::size_t>& feature_columns,
                   std::size_t label_column) = 0;

  /// p(l|x) over the label's value space for every row of `block` (the
  /// classifier reads only its feature columns) — the p(f_i(x)|x) of
  /// Algorithm 3. Writes one span per row into `dists`, which must hold
  /// block.rows entries. A span either points at state cached at fit time
  /// (C4.5 leaves, RIPPER rules) or into `scratch` (NBC, row r at
  /// [r * label_cardinality(), (r + 1) * label_cardinality())), so `scratch`
  /// must be at least block.rows * label_cardinality() wide; callers size
  /// one buffer and reuse it per block. Spans stay valid until the next
  /// fit on this classifier or the next write to `scratch`. Values
  /// outside a column's training range are legal (unseen values).
  virtual void predict_block(const RowBlock& block, std::span<double> scratch,
                             std::span<std::span<const double>> dists)
      const = 0;

  /// The one-row case of predict_block for a full-width row.
  std::span<const double> predict_dist(const std::vector<int>& row,
                                       std::span<double> scratch) const;

  /// Most probable class (argmax of predict_dist).
  int predict(const std::vector<int>& row) const;

  virtual const char* name() const = 0;

  /// Width of the label's value space for the fitted model; 0 before fit.
  /// The cross-feature model sizes its scoring scratch from this.
  virtual std::size_t label_cardinality() const = 0;

  /// Human-readable rendering of the fitted model (the paper: "the resulting
  /// model is fairly easy to comprehend and can be examined by human
  /// experts"). `feature_names` indexes the full-width columns; pass the
  /// dataset's names. Default: an opaque placeholder.
  virtual std::string describe(
      const std::vector<std::string>& feature_names) const {
    (void)feature_names;
    return std::string("(") + name() + ": no rendering)\n";
  }
};

/// Produces fresh classifier instances; the cross-feature model needs one
/// per labelled feature.
using ClassifierFactory = std::function<std::unique_ptr<Classifier>()>;

/// Utility: Laplace-smoothed distribution from raw class counts.
std::vector<double> laplace_distribution(const std::vector<double>& counts);

/// Index of the largest probability (the first one on ties): the class a
/// distribution predicts.
std::size_t argmax(std::span<const double> dist);

}  // namespace xfa
