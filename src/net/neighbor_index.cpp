#include "net/neighbor_index.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace xfa {

namespace {

// Width of the slack band's rounding margin, as a fraction of the range.
// The band decides from computed doubles and must agree with the reference
// check distance2(center, position) <= range^2 evaluated in doubles. The
// two differ from exact arithmetic by a few ulps: each coordinate (mobility
// evaluation, the subtraction in distance2) by about eps * X for a field of
// extent X, and each square, sum and slack product by a few eps relative to
// values near (1.25 range)^2, with eps = 2^-53. Together that is below
// 10 * eps * (X + range) metres, under 1e-6 * range for any field narrower
// than 10^8 ranges, so a candidate the margin-widened band decides from the
// snapshot gets the answer the reference would give.
constexpr double kRoundingMargin = 1e-6;

}  // namespace

NeighborIndex::NeighborIndex(const MobilityModel& mobility, double range_m,
                             double max_speed)
    : mobility_(mobility),
      range_m_(range_m),
      range2_(range_m * range_m),
      max_speed_(max_speed),
      // One cell per radio range keeps the query to at most a handful of
      // cell lookups while still pruning well over half the field on the
      // paper's 1000x1000m / 250m-range topology.
      cell_size_(range_m),
      // Rebuild once nodes may have drifted a quarter range (3.1 simulated
      // seconds at the paper's 20 m/s): the query disc then never widens
      // beyond 1.25x range, and the O(N) rebuild amortizes over the hundreds
      // of transmissions in between.
      slack_budget_(range_m * 0.25) {
  XFA_CHECK_GT(range_m, 0);
}

std::int32_t NeighborIndex::cell_coord(double v) const {
  return static_cast<std::int32_t>(std::floor(v / cell_size_));
}

void NeighborIndex::rebuild(SimTime t) const {
  // Counting sort of node ids into the dense cell grid. Two linear passes
  // over the cached positions; the grid covers exactly the bounding box of
  // the snapshot, so the cell count tracks the mobility field, not the
  // coordinate space.
  positions_.resize(node_count_);
  std::int32_t cx0 = std::numeric_limits<std::int32_t>::max();
  std::int32_t cy0 = std::numeric_limits<std::int32_t>::max();
  std::int32_t cx1 = std::numeric_limits<std::int32_t>::min();
  std::int32_t cy1 = std::numeric_limits<std::int32_t>::min();
  for (std::size_t i = 0; i < node_count_; ++i) {
    const Vec2 pos = mobility_.position(static_cast<NodeId>(i), t);
    positions_[i] = pos;
    const std::int32_t cx = cell_coord(pos.x);
    const std::int32_t cy = cell_coord(pos.y);
    cx0 = std::min(cx0, cx);
    cy0 = std::min(cy0, cy);
    cx1 = std::max(cx1, cx);
    cy1 = std::max(cy1, cy);
  }
  grid_x0_ = cx0;
  grid_y0_ = cy0;
  grid_w_ = node_count_ == 0 ? 0 : cx1 - cx0 + 1;
  grid_h_ = node_count_ == 0 ? 0 : cy1 - cy0 + 1;
  const std::size_t cells = static_cast<std::size_t>(grid_w_) *
                            static_cast<std::size_t>(grid_h_);
  // A bounded mobility field yields (field/range + 1)^2 cells — tens to a
  // few thousand. A blow-up here means a caller enabled the grid (promised
  // a max speed) for an effectively unbounded coordinate space; fail loudly
  // rather than silently allocating gigabytes.
  XFA_CHECK_LT(cells, std::size_t{1} << 26)
      << "neighbor grid bounding box is pathologically sparse";
  starts_.assign(cells + 1, 0);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const std::size_t c =
        static_cast<std::size_t>(cell_coord(positions_[i].y) - grid_y0_) *
            static_cast<std::size_t>(grid_w_) +
        static_cast<std::size_t>(cell_coord(positions_[i].x) - grid_x0_);
    ++starts_[c + 1];
  }
  for (std::size_t c = 1; c <= cells; ++c) starts_[c] += starts_[c - 1];
  members_.resize(node_count_);
  member_pos_.resize(node_count_);
  cursor_.assign(starts_.begin(), starts_.end() - 1);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const std::size_t c =
        static_cast<std::size_t>(cell_coord(positions_[i].y) - grid_y0_) *
            static_cast<std::size_t>(grid_w_) +
        static_cast<std::size_t>(cell_coord(positions_[i].x) - grid_x0_);
    const std::uint32_t slot = cursor_[c]++;
    members_[slot] = static_cast<NodeId>(i);
    member_pos_[slot] = positions_[i];
  }
  mask_.assign((node_count_ + 63) / 64, 0);
  built_ = true;
  built_at_ = t;
  indexed_nodes_ = node_count_;
  ++stats_.rebuilds;
}

void NeighborIndex::in_range_of(NodeId self, SimTime t,
                                std::vector<NodeId>& out) const {
  ++stats_.queries;
  const Vec2 center = mobility_.position(self, t);

  if (!enabled()) {
    // Exact linear scan: the pre-grid behavior, kept for mobility models
    // without a speed bound (e.g. teleporting test topologies).
    for (std::size_t i = 0; i < node_count_; ++i) {
      const auto id = static_cast<NodeId>(i);
      if (id == self) continue;
      ++stats_.candidates;
      ++stats_.exact;
      if (distance2(center, mobility_.position(id, t)) <= range2_) {
        ++stats_.confirmed;
        out.push_back(id);
      }
    }
    return;
  }

  if (!built_ || indexed_nodes_ != node_count_ ||
      (t - built_at_) * max_speed_ > slack_budget_) {
    rebuild(t);
  }
  // Every node is within `slack` of its bucketed position, so the true
  // neighbors of `center` all sit in cells intersecting the widened disc.
  // Clamping to the grid's bounding box is safe for the same reason: every
  // bucketed position lies inside it.
  const double slack = (t - built_at_) * max_speed_;
  const double reach = range_m_ + slack;
  const std::int32_t qx0 =
      std::max(cell_coord(center.x - reach), grid_x0_);
  const std::int32_t qx1 =
      std::min(cell_coord(center.x + reach), grid_x0_ + grid_w_ - 1);
  const std::int32_t qy0 =
      std::max(cell_coord(center.y - reach), grid_y0_);
  const std::int32_t qy1 =
      std::min(cell_coord(center.y + reach), grid_y0_ + grid_h_ - 1);

  // By the triangle inequality a candidate's true distance lies within
  // d_b +- slack of its bucketed distance d_b. Beyond the band's outer edge
  // it is out of range, inside the inner edge it is in range, and only the
  // band between evaluates its true position. The inner edge stays positive
  // because a query never sees more slack than the budget (range/4).
  const double margin = range_m_ * kRoundingMargin;
  const double outer = reach + margin;
  const double inner = range_m_ - slack - margin;
  const double outer2 = outer * outer;
  const double inner2 = inner * inner;
  const NodeId* const ids = members_.data();
  const Vec2* const pos = member_pos_.data();
  std::uint64_t* const mask = mask_.data();
  std::uint64_t candidates = 0;
  std::uint64_t confirmed = 0;
  std::uint64_t exact = 0;
  // (qx0 <= qx1 whenever the mobility keeps its speed promise; the guard
  // keeps a broken promise from indexing before a row's run.)
  for (std::int32_t cy = qy0; qx0 <= qx1 && cy <= qy1; ++cy) {
    // The covered cells of one grid row are one contiguous CSR run.
    const std::size_t row = static_cast<std::size_t>(cy - grid_y0_) *
                            static_cast<std::size_t>(grid_w_);
    const std::uint32_t end =
        starts_[row + static_cast<std::size_t>(qx1 - grid_x0_) + 1];
    for (std::uint32_t k = starts_[row + static_cast<std::size_t>(
                                             qx0 - grid_x0_)];
         k < end; ++k) {
      const NodeId id = ids[k];
      if (id == self) continue;
      ++candidates;
      const double d2 = distance2(center, pos[k]);
      if (d2 > outer2) continue;
      if (d2 > inner2) {
        ++exact;
        if (distance2(center, mobility_.position(id, t)) > range2_) continue;
      }
      ++confirmed;
      const auto bit = static_cast<std::uint32_t>(id);
      mask[bit >> 6] |= std::uint64_t{1} << (bit & 63);
    }
  }
  stats_.candidates += candidates;
  stats_.confirmed += confirmed;
  stats_.exact += exact;

  // Ascending id order is load-bearing: the channel draws per-receiver RNG
  // decisions in this order, so it is part of the byte-identity contract.
  // Emitting set bits word by word gives that order with no sort, and
  // leaves the mask zeroed for the next query.
  for (std::size_t w = 0; w < mask_.size(); ++w) {
    std::uint64_t word = mask[w];
    if (word == 0) continue;
    mask[w] = 0;
    do {
      out.push_back(static_cast<NodeId>(
          w * 64 + static_cast<std::size_t>(std::countr_zero(word))));
      word &= word - 1;
    } while (word != 0);
  }
}

}  // namespace xfa
