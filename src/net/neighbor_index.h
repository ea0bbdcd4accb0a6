// Spatial grid over node positions: the channel's candidate-pruning
// structure for unit-disc neighbor queries, stored as a dense counting-sort
// CSR layout over the snapshot's bounding box.
//
// The brute-force transmit path costs one position evaluation and one
// distance check against every registered node per transmission. The grid
// buckets node positions into square cells and answers "who might be within
// `range` of this point?" by scanning only the cells intersecting the query
// disc; an exact squared-distance confirmation against *fresh* positions
// then makes the result identical to the brute-force scan (same nodes, same
// ascending-id order), so traces stay byte-for-byte unchanged.
//
// Staleness model: the grid snapshot taken at time t0 stays usable at t >=
// t0 because a node moving at most `max_speed` can have drifted at most
// max_speed * (t - t0) metres from its bucketed position; the query radius
// is widened by exactly that slack. Once the slack exceeds a fixed budget
// the grid is rebuilt (O(N), amortized over the many transmissions in
// between). `max_speed` is therefore a hard correctness bound: the index is
// only enabled when the caller can promise one (max_speed >= 0), and
// teleporting mobility models (StaticPositions::move) must leave it
// disabled — the disabled fallback is the plain exact scan.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/waypoint.h"
#include "sim/types.h"

namespace xfa {

class NeighborIndex {
 public:
  /// `max_speed` (m/s) bounds how fast any node's position may change;
  /// negative disables the grid (exact linear scan fallback).
  NeighborIndex(const MobilityModel& mobility, double range_m,
                double max_speed);

  bool enabled() const { return max_speed_ >= 0; }

  /// Number of nodes indexed; ids are 0..count-1 (the channel's contract).
  void set_node_count(std::size_t count) { node_count_ = count; }

  /// Appends to `out`, in ascending node-id order, every node other than
  /// `self` whose position at `t` is within `range_m` of `self`'s position
  /// at `t`. Exact: grid pruning is conservative, confirmation evaluates
  /// true positions. Queries must be non-decreasing in `t` (the mobility
  /// model's own contract).
  void in_range_of(NodeId self, SimTime t, std::vector<NodeId>& out) const;

  /// Diagnostic counters (perf/ work counters, property tests).
  struct Stats {
    std::uint64_t rebuilds = 0;
    std::uint64_t queries = 0;
    std::uint64_t candidates = 0;  // pruned candidates exactly checked
    std::uint64_t confirmed = 0;   // candidates actually within range
  };
  const Stats& stats() const { return stats_; }

 private:
  std::int32_t cell_coord(double v) const;

  void rebuild(SimTime t) const;

  const MobilityModel& mobility_;
  const double range_m_;
  const double range2_;
  const double max_speed_;
  const double cell_size_;
  const double slack_budget_;
  std::size_t node_count_ = 0;

  mutable bool built_ = false;
  mutable SimTime built_at_ = 0;
  mutable std::size_t indexed_nodes_ = 0;
  // Dense CSR grid over the bounding box of the bucketed positions: cell
  // (cx, cy) covers members_[starts_[c] .. starts_[c+1]) with
  // c = (cy - grid_y0_) * grid_w_ + (cx - grid_x0_). Built by counting sort
  // in ascending node-id order, so each cell's member list is sorted. The
  // two flat vectors replace a hash map of per-cell vectors: rebuild is two
  // linear passes with zero allocation at steady state, and a query's cell
  // lookup is pure index arithmetic instead of a hash probe per cell.
  mutable std::int32_t grid_x0_ = 0;
  mutable std::int32_t grid_y0_ = 0;
  mutable std::int32_t grid_w_ = 0;
  mutable std::int32_t grid_h_ = 0;
  mutable std::vector<std::uint32_t> starts_;
  mutable std::vector<NodeId> members_;
  mutable std::vector<Vec2> positions_;  // rebuild scratch (position reuse)
  mutable std::vector<std::uint32_t> cursor_;  // rebuild scratch (fill slots)
  mutable std::vector<NodeId> scratch_;
  mutable Stats stats_;
};

}  // namespace xfa
