// Equal-frequency ("frequency bucket") discretization, paper §4.1:
// "We divide the value space of a continuous feature into a fixed number of
// continuous ranges (buckets), so that the frequencies of occurrences of
// feature values dropped in all buckets are equal... In our experiments, we
// choose the bucket number to be 5."
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "features/extract.h"

namespace xfa {

/// Discrete event matrix ready for the classifiers: every cell is a bucket
/// index in [0, cardinality(column)).
struct DiscreteTrace {
  std::vector<SimTime> times;
  std::vector<std::vector<int>> rows;
  std::vector<int> labels;
  std::vector<int> cardinality;  // per column

  std::size_t size() const { return rows.size(); }
  std::size_t columns() const { return cardinality.size(); }
};

class EqualFrequencyDiscretizer {
 public:
  /// `min_relative_gap`: a cut point is kept only if it exceeds the previous
  /// one by this relative margin. Quantile cuts through a tightly clustered
  /// value mass (e.g. an inter-packet stddev that is near-constant up to
  /// per-run jitter) otherwise turn measurement noise into bucket noise;
  /// collapsing such cuts makes those features coarse-but-stable, which is
  /// what cross-trace generalization needs. 0 disables the guard.
  explicit EqualFrequencyDiscretizer(int buckets = 5,
                                     double min_relative_gap = 0.25)
      : buckets_(buckets), min_relative_gap_(min_relative_gap) {}

  /// Learns per-column bucket boundaries from (a random subset of) normal
  /// training rows. `max_fit_rows` implements the paper's "pre-filtering
  /// process using a small random subset" (0 = use everything). The subset
  /// is drawn first, on the calling thread; then each column's cuts are
  /// computed as one parallel_for index on the shared pool, so the cuts are
  /// identical for any pool size.
  void fit(const std::vector<std::vector<double>>& rows,
           std::size_t max_fit_rows = 0, std::uint64_t seed = 7);

  bool fitted() const { return !cut_count_.empty(); }

  /// Number of columns the fitted mapping covers (transform requires rows
  /// exactly this wide).
  std::size_t columns() const { return cut_count_.size(); }

  /// Maps a value of `column` to its bucket index.
  int transform_value(std::size_t column, double value) const;

  /// Applies the fitted mapping to a whole trace, one 128-row block per
  /// parallel_for index on the shared pool; every row lands in its own slot,
  /// so the result is identical for any pool size.
  DiscreteTrace transform(const RawTrace& trace) const;

  /// Applies the fitted mapping to rows [first, first + count) of a trace,
  /// written column-major (the layout the scoring blocks read): the bucket
  /// of row first + r in column c lands at out[c * stride + r].
  void transform_rows(const RawTrace& trace, std::size_t first,
                      std::size_t count, std::int32_t* out,
                      std::size_t stride) const;

  /// Effective number of buckets for a column (ties can merge buckets).
  int cardinality(std::size_t column) const {
    return static_cast<int>(cut_count_[column]) + 1;
  }

  /// Column `column`'s fitted cut points, ascending: the row prefix of the
  /// flat table that transform_value searches. Valid until the next fit.
  std::span<const double> cuts(std::size_t column) const;

 private:
  /// Installs per-column ascending cut vectors as the padded flat table.
  void set_cuts(const std::vector<std::vector<double>>& cuts);
  /// Buckets one full-width row into out[c * stride] for every column c.
  void transform_row(const std::vector<double>& row, std::int32_t* out,
                     std::size_t stride) const;

  int buckets_;
  double min_relative_gap_;
  // Cut points as one flat table with a row of width_ entries per column:
  // cuts_[c * width_ + k] is column c's k-th ascending cut for k <
  // cut_count_[c] and +inf after that, and width_ is the largest cut count.
  // A value's bucket is the number of cuts below it (value <= cut[i] ->
  // bucket i), which is lower_bound's index for every double, NaN included:
  // NaN and the +inf padding compare below nothing.
  std::vector<double> cuts_;
  std::vector<std::size_t> cut_count_;
  std::size_t width_ = 0;
};

}  // namespace xfa
