// Column-major view of a Dataset: one contiguous int32 array per column.
//
// The classifiers' hot loops (C4.5 candidate-split counting, RIPPER coverage
// scans, naive-Bayes conditional tables) read one or two columns for every
// row in a partition; the row-major `vector<vector<int>>` layout makes each
// of those reads a pointer chase into a separately allocated row. The view
// is built once per dataset (CrossFeatureModel::train builds a single view
// shared by all L sub-model fits) and hands out cache-linear `std::span`s.
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

  const Dataset& source() const { return *source_; }

 private:
  const Dataset* source_;
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::int32_t> values_;  // column-major: values_[c*rows_ + r]
  std::vector<int> cardinality_;
  int max_cardinality_ = 0;
};

}  // namespace xfa
