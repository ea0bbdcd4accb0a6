#include "ml/dataset_view.h"

#include <algorithm>

#include "common/check.h"
#include "exec/parallel_for.h"

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
  for (std::size_t r = 0; r < rows_; ++r)
    XFA_CHECK_EQ(data.rows[r].size(), cols_) << "row width mismatch at row " << r;
  values_.resize(rows_ * cols_);
  bits_.assign(bit_words, 0);
  // One task per column: it owns its slice of values_ and bits_, so the
  // view is the same for any pool size. A column stops at its first value
  // outside [0, cardinality) and records the row in first_bad[c].
  std::vector<std::size_t> first_bad(cols_, rows_);
  parallel_for(shared_pool(), cols_, [&](std::size_t c) {
    const int card = cardinality_[c];
    std::int32_t* const values = values_.data() + c * rows_;
    std::uint64_t* const bits = bits_.data() + bit_offset_[c];
    for (std::size_t r = 0; r < rows_; ++r) {
      const int value = data.rows[r][c];
      if (value < 0 || value >= card) {
        first_bad[c] = r;
        return;
      }
      values[r] = static_cast<std::int32_t>(value);
      bits[static_cast<std::size_t>(value) * words_ + r / 64] |=
          std::uint64_t{1} << (r % 64);
    }
  });
  // Checked in every build: the row bitsets and C4.5's fused
  // value * labels + label codes index by the value. The report names the
  // first bad value in row-major order, as a row-by-row scan would.
  const auto bad = std::min_element(first_bad.begin(), first_bad.end());
  if (bad != first_bad.end() && *bad != rows_) {
    const std::size_t r = *bad;
    const auto c = static_cast<std::size_t>(bad - first_bad.begin());
    const std::vector<int>& row = data.rows[r];
    XFA_CHECK(row[c] >= 0 && row[c] < cardinality_[c])
        << "value " << row[c] << " out of cardinality range at row " << r
        << ", column " << c;
  }
}

}  // namespace xfa
