// Column-major view of a Dataset: one contiguous int32 array per column,
// plus one row bitset per (column, value).
//
// The classifiers' hot loops (C4.5 candidate-split counting, RIPPER coverage
// counts, naive-Bayes conditional tables) read one or two columns for every
// row in a partition; the row-major `vector<vector<int>>` layout makes each
// of those reads a pointer chase into a separately allocated row. The view
// is built once per dataset (CrossFeatureModel::train builds a single view
// shared by all L sub-model fits) and hands out cache-linear `std::span`s.
//
// The row bitsets serve RIPPER, which counts rows that satisfy conjunctions
// of `column == value` tests: bit r of row_bits(c, v) is set iff row r has
// value v in column c, so a conjunction's cover is an AND of words and its
// size a popcount. They cost Σ cardinality × ⌈rows/64⌉ words, built in the
// constructor and read-only afterwards, so concurrent fits share them.
//
// The view copies values (int32, column-major) and keeps a pointer to the
// source Dataset so code that still needs the row-major layout (the
// submodel-accuracy ranker scores whole held-out rows) can reach it. It
// must not outlive the Dataset.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/dataset.h"

namespace xfa {

class DatasetView {
 public:
  /// Aborts unless every row has the schema's width and every value lies in
  /// [0, cardinality) of its column.
  explicit DatasetView(const Dataset& data);

  std::size_t rows() const { return rows_; }
  std::size_t columns() const { return cols_; }

  /// All values of column `c`, indexed by row.
  std::span<const std::int32_t> column(std::size_t c) const {
    return {values_.data() + c * rows_, rows_};
  }

  int cardinality(std::size_t c) const { return cardinality_[c]; }
  /// Largest column cardinality — the scratch-buffer sizing bound.
  int max_cardinality() const { return max_cardinality_; }

  /// 64-bit words per row bitset: ⌈rows / 64⌉.
  std::size_t words() const { return words_; }
  /// Rows whose column `c` holds `value`, as words() words; bit r % 64 of
  /// word r / 64 stands for row r, and bits at or past rows() are zero.
  std::span<const std::uint64_t> row_bits(std::size_t c, int value) const {
    return {bits_.data() + bit_offset_[c] +
                static_cast<std::size_t>(value) * words_,
            words_};
  }

  const Dataset& source() const { return *source_; }

 private:
  const Dataset* source_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::size_t words_ = 0;
  std::vector<std::int32_t> values_;  // column-major: values_[c*rows_ + r]
  std::vector<int> cardinality_;
  int max_cardinality_ = 0;
  std::vector<std::uint64_t> bits_;      // column c's bitsets, value-major
  std::vector<std::size_t> bit_offset_;  // column c's first word in bits_
};

}  // namespace xfa
