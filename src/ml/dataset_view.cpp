#include "ml/dataset_view.h"

#include "common/check.h"

namespace xfa {

DatasetView::DatasetView(const Dataset& data)
    : source_(&data),
      rows_(data.rows.size()),
      cols_(data.cardinality.size()),
      words_((data.rows.size() + 63) / 64),
      cardinality_(data.cardinality),
      bit_offset_(data.cardinality.size()) {
  std::size_t bit_words = 0;
  for (std::size_t c = 0; c < cols_; ++c) {
    const int card = cardinality_[c];
    max_cardinality_ = card > max_cardinality_ ? card : max_cardinality_;
    bit_offset_[c] = bit_words;
    bit_words += static_cast<std::size_t>(card > 0 ? card : 0) * words_;
  }
  values_.resize(rows_ * cols_);
  for (std::size_t r = 0; r < rows_; ++r) {
    const std::vector<int>& row = data.rows[r];
    XFA_CHECK_EQ(row.size(), cols_) << "row width mismatch at row " << r;
    for (std::size_t c = 0; c < cols_; ++c) {
      // Checked in every build: the row bitsets below and C4.5's fused
      // value * labels + label codes index by this value.
      XFA_CHECK(row[c] >= 0 && row[c] < cardinality_[c])
          << "value " << row[c] << " out of cardinality range at row " << r
          << ", column " << c;
      values_[c * rows_ + r] = static_cast<std::int32_t>(row[c]);
    }
  }
  bits_.assign(bit_words, 0);
  for (std::size_t c = 0; c < cols_; ++c) {
    const std::int32_t* const values = values_.data() + c * rows_;
    std::uint64_t* const bits = bits_.data() + bit_offset_[c];
    for (std::size_t r = 0; r < rows_; ++r)
      bits[static_cast<std::size_t>(values[r]) * words_ + r / 64] |=
          std::uint64_t{1} << (r % 64);
  }
}

}  // namespace xfa
