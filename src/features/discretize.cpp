#include "features/discretize.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"
#include "exec/parallel_for.h"
#include "sim/rng.h"

namespace xfa {

void EqualFrequencyDiscretizer::fit(
    const std::vector<std::vector<double>>& rows, std::size_t max_fit_rows,
    std::uint64_t seed) {
  XFA_CHECK(!rows.empty());
  XFA_CHECK_GE(buckets_, 2);

  // Optional pre-filtering subset.
  std::vector<const std::vector<double>*> sample;
  sample.reserve(rows.size());
  for (const auto& row : rows) sample.push_back(&row);
  if (max_fit_rows != 0 && sample.size() > max_fit_rows) {
    Rng rng(seed);
    for (std::size_t i = 0; i < max_fit_rows; ++i) {
      const std::size_t j =
          i + static_cast<std::size_t>(rng.uniform_int(sample.size() - i));
      std::swap(sample[i], sample[j]);
    }
    sample.resize(max_fit_rows);
  }

  // One task per column: each sorts its own copy of the sampled values and
  // writes only boundaries[c], so the cuts are the same for any pool size.
  const std::size_t columns = rows.front().size();
  std::vector<std::vector<double>> boundaries(columns);
  parallel_for(shared_pool(), columns, [&](std::size_t c) {
    std::vector<double> values(sample.size());
    for (std::size_t r = 0; r < sample.size(); ++r)
      values[r] = (*sample[r])[c];
    std::sort(values.begin(), values.end());

    // Cut points at the 1/b, 2/b, ... quantiles; duplicates merge (a column
    // dominated by one value, e.g. all zeros, ends up with fewer buckets).
    std::vector<double>& cuts = boundaries[c];
    for (int b = 1; b < buckets_; ++b) {
      const std::size_t idx =
          std::min(values.size() - 1,
                   static_cast<std::size_t>(values.size() *
                                            static_cast<double>(b) /
                                            static_cast<double>(buckets_)));
      const double cut = values[idx];
      // The first cut is always kept (even a cut at the minimum separates
      // "minimum" from "above minimum" — important for mostly-zero count
      // features whose bursts are the attack signal). Later cuts must clear
      // the relative-gap guard.
      const double required_gap =
          cuts.empty() ? 0.0
                       : min_relative_gap_ * std::max(std::abs(cut),
                                                      std::abs(cuts.back()));
      if (cuts.empty() || cut > cuts.back() + required_gap)
        cuts.push_back(cut);
    }
    // A cut at the column maximum adds no information; drop it so constant
    // columns yield a single bucket.
    if (!cuts.empty() && cuts.back() >= values.back()) cuts.pop_back();
    // Postcondition: strictly increasing cuts, and never more buckets than
    // requested — transform_value depends on both.
    XFA_CHECK(std::is_sorted(cuts.begin(), cuts.end()));
    XFA_CHECK_LT(static_cast<int>(cuts.size()), buckets_);
  });
  set_cuts(boundaries);
}

void EqualFrequencyDiscretizer::set_cuts(
    const std::vector<std::vector<double>>& cuts) {
  width_ = 0;
  cut_count_.resize(cuts.size());
  for (std::size_t c = 0; c < cuts.size(); ++c) {
    cut_count_[c] = cuts[c].size();
    width_ = std::max(width_, cuts[c].size());
  }
  cuts_.assign(cuts.size() * width_, std::numeric_limits<double>::infinity());
  for (std::size_t c = 0; c < cuts.size(); ++c)
    std::copy(cuts[c].begin(), cuts[c].end(), cuts_.begin() + c * width_);
}

namespace {

/// Number of entries of the padded cut row below `value`: branch-free, and
/// equal to lower_bound's index into the unpadded cuts.
int count_below(const double* cuts, std::size_t width, double value) {
  int below = 0;
  for (std::size_t k = 0; k < width; ++k) below += cuts[k] < value ? 1 : 0;
  return below;
}

}  // namespace

int EqualFrequencyDiscretizer::transform_value(std::size_t column,
                                               double value) const {
  XFA_CHECK_LT(column, cut_count_.size());
  const int bucket = count_below(cuts_.data() + column * width_, width_, value);
  XFA_DCHECK(bucket >= 0 && bucket < cardinality(column));
  return bucket;
}

std::span<const double> EqualFrequencyDiscretizer::cuts(
    std::size_t column) const {
  XFA_CHECK_LT(column, cut_count_.size());
  return {cuts_.data() + column * width_, cut_count_[column]};
}

void EqualFrequencyDiscretizer::transform_row(const std::vector<double>& row,
                                              std::int32_t* out,
                                              std::size_t stride) const {
  XFA_CHECK_EQ(row.size(), cut_count_.size());
  for (std::size_t c = 0; c < row.size(); ++c)
    out[c * stride] = count_below(cuts_.data() + c * width_, width_, row[c]);
}

DiscreteTrace EqualFrequencyDiscretizer::transform(
    const RawTrace& trace) const {
  XFA_CHECK(fitted());
  DiscreteTrace out;
  out.times = trace.times;
  out.labels = trace.labels;
  out.cardinality.resize(cut_count_.size());
  for (std::size_t c = 0; c < cut_count_.size(); ++c)
    out.cardinality[c] = cardinality(c);
  // One task per block of rows, each writing only its own rows.
  constexpr std::size_t kBlock = 128;
  out.rows.resize(trace.rows.size());
  const std::size_t blocks = (trace.rows.size() + kBlock - 1) / kBlock;
  parallel_for(shared_pool(), blocks, [&](std::size_t b) {
    const std::size_t end = std::min(trace.rows.size(), (b + 1) * kBlock);
    for (std::size_t r = b * kBlock; r < end; ++r) {
      out.rows[r].resize(trace.rows[r].size());
      transform_row(trace.rows[r], out.rows[r].data(), 1);
    }
  });
  return out;
}

void EqualFrequencyDiscretizer::transform_rows(const RawTrace& trace,
                                               std::size_t first,
                                               std::size_t count,
                                               std::int32_t* out,
                                               std::size_t stride) const {
  XFA_CHECK(fitted());
  XFA_CHECK_LE(first + count, trace.rows.size());
  XFA_CHECK_LE(count, stride);
  for (std::size_t r = 0; r < count; ++r)
    transform_row(trace.rows[first + r], out + r, stride);
}

}  // namespace xfa
