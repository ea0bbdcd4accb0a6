// Discrete dataset and the classifier interface shared by C4.5, RIPPER and
// the naive Bayes classifier.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"

namespace xfa {

class DatasetView;
class SerialReader;
class SerialWriter;

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

  /// p(l|x) over the label's value space for a full-width row (the
  /// classifier reads only its feature columns) — the p(f_i(x)|x) of
  /// Algorithm 3. The span either points at state cached at fit time (C4.5
  /// leaves, RIPPER rules) or aliases `scratch` after writing into it (NBC),
  /// so `scratch` must be at least label_cardinality() wide; callers size
  /// one buffer and reuse it per row. Valid until the next fit/load on this
  /// classifier or the next write to `scratch`.
  virtual std::span<const double> predict_dist(
      const std::vector<int>& row, std::span<double> scratch) const = 0;

  /// Most probable class (argmax of predict_dist).
  int predict(const std::vector<int>& row) const;

  virtual const char* name() const = 0;

  /// Width of the label's value space for the fitted model; 0 before fit.
  /// The cross-feature model sizes its scoring scratch from this after
  /// deserialization.
  virtual std::size_t label_cardinality() const = 0;

  /// Serializes the fitted state into `out` so that load_state() on a
  /// default-configured instance restores a classifier whose every
  /// predict_dist/describe() output is bit-identical; kInvalidArgument
  /// before fit. Persisted via the XFAMDL1 artifact format, see
  /// ml/model_io.h.
  virtual Status save_state(SerialWriter& out) const = 0;

  /// Restores state written by save_state(). Every stored column index is
  /// validated against `max_columns` (the row width predict will be handed)
  /// and every internal size invariant is re-checked, so a hostile payload
  /// yields kCorruptArtifact — never an abort or out-of-bounds access.
  virtual Status load_state(SerialReader& in, std::size_t max_columns) = 0;

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
