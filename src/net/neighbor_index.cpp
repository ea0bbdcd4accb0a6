#include "net/neighbor_index.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>

#include "common/check.h"

namespace xfa {

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
  // Fill in ascending node-id order so each cell's member list is sorted by
  // id.
  cursor_.assign(starts_.begin(), starts_.end() - 1);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const std::size_t c =
        static_cast<std::size_t>(cell_coord(positions_[i].y) - grid_y0_) *
            static_cast<std::size_t>(grid_w_) +
        static_cast<std::size_t>(cell_coord(positions_[i].x) - grid_x0_);
    members_[cursor_[c]++] = static_cast<NodeId>(i);
  }
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
  const double reach = range_m_ + (t - built_at_) * max_speed_;
  const std::int32_t qx0 =
      std::max(cell_coord(center.x - reach), grid_x0_);
  const std::int32_t qx1 =
      std::min(cell_coord(center.x + reach), grid_x0_ + grid_w_ - 1);
  const std::int32_t qy0 =
      std::max(cell_coord(center.y - reach), grid_y0_);
  const std::int32_t qy1 =
      std::min(cell_coord(center.y + reach), grid_y0_ + grid_h_ - 1);
  scratch_.clear();
  for (std::int32_t cy = qy0; cy <= qy1; ++cy) {
    const std::size_t row = static_cast<std::size_t>(cy - grid_y0_) *
                            static_cast<std::size_t>(grid_w_);
    for (std::int32_t cx = qx0; cx <= qx1; ++cx) {
      const std::size_t c = row + static_cast<std::size_t>(cx - grid_x0_);
      scratch_.insert(scratch_.end(), members_.begin() + starts_[c],
                      members_.begin() + starts_[c + 1]);
    }
  }
  // Ascending id order is load-bearing: the channel draws per-receiver RNG
  // decisions in this order, so it is part of the byte-identity contract.
  // (Each cell's run is already id-sorted; the cross-cell gather is not.)
  std::sort(scratch_.begin(), scratch_.end());
  for (const NodeId id : scratch_) {
    if (id == self) continue;
    ++stats_.candidates;
    if (distance2(center, mobility_.position(id, t)) <= range2_) {
      ++stats_.confirmed;
      out.push_back(id);
    }
  }
}

}  // namespace xfa
