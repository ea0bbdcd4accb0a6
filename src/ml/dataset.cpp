#include "ml/dataset.h"

#include <type_traits>
#include <vector>

namespace xfa {

std::span<const double> Classifier::predict_dist(
    const std::vector<int>& row, std::span<double> scratch) const {
  static_assert(std::is_same_v<int, std::int32_t>);  // rows alias blocks
  std::span<const double> dist;
  predict_block(RowBlock{row.data(), 1, 1}, scratch, {&dist, 1});
  return dist;
}

int Classifier::predict(const std::vector<int>& row) const {
  std::vector<double> scratch(label_cardinality());
  return static_cast<int>(argmax(predict_dist(row, scratch)));
}

std::vector<double> laplace_distribution(const std::vector<double>& counts) {
  std::vector<double> dist(counts.size());
  double total = 0;
  for (const double c : counts) total += c;
  const double denominator = total + static_cast<double>(counts.size());
  for (std::size_t v = 0; v < counts.size(); ++v)
    dist[v] = (counts[v] + 1.0) / denominator;
  return dist;
}

std::size_t argmax(std::span<const double> dist) {
  std::size_t best = 0;
  for (std::size_t v = 1; v < dist.size(); ++v)
    if (dist[v] > dist[best]) best = v;
  return best;
}

}  // namespace xfa
