// Spatial grid over node positions: the channel's candidate-pruning
// structure for unit-disc neighbor queries, stored as a dense counting-sort
// CSR layout over the snapshot's bounding box.
//
// The brute-force transmit path costs one position evaluation and one
// distance check against every registered node per transmission. The grid
// buckets node positions into square cells and answers "who might be within
// `range` of this point?" by scanning only the cells intersecting the query
// disc. Each member's bucketed position is stored beside its id, so almost
// every candidate is decided from the snapshot alone; only candidates in a
// thin band around the range, where the snapshot cannot decide, evaluate
// their true position. The result is identical to the brute-force scan (same
// nodes, same ascending-id order), so traces stay byte-for-byte unchanged.
//
// Staleness model: the grid snapshot taken at time t0 stays usable at t >=
// t0 because a node moving at most `max_speed` can have drifted at most
// s = max_speed * (t - t0) metres from its bucketed position. Pruning widens
// the query radius by s; the band test uses that a node whose bucketed
// distance is d_b has true distance within d_b +- s. Once the slack exceeds
// a fixed budget the grid is rebuilt (O(N), amortized over the many
// transmissions in between). `max_speed` is therefore a hard correctness
// bound: the index is only enabled when the caller can promise one
// (max_speed >= 0), and teleporting mobility models (StaticPositions::move)
// must leave it disabled — the disabled fallback is the plain exact scan.
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
  /// at `t`. Exact: grid pruning and the snapshot band test are
  /// conservative, and undecided candidates evaluate true positions.
  /// Queries must be non-decreasing in `t` (the mobility model's own
  /// contract).
  void in_range_of(NodeId self, SimTime t, std::vector<NodeId>& out) const;

  /// Diagnostic counters (perf/ work counters, property tests).
  struct Stats {
    std::uint64_t rebuilds = 0;
    std::uint64_t queries = 0;
    // Ids other than `self` in the scanned cells (every other node when
    // disabled).
    std::uint64_t candidates = 0;
    std::uint64_t confirmed = 0;  // candidates actually within range
    // Candidates whose true position was evaluated: the slack band's when
    // the grid is enabled, every candidate when it is disabled.
    std::uint64_t exact = 0;
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
  // c = (cy - grid_y0_) * grid_w_ + (cx - grid_x0_), and member_pos_ holds
  // each member's bucketed position at the same index. Built by counting
  // sort, so the cells of one grid row are one contiguous run: a query walks
  // starts_[row + qx0] .. starts_[row + qx1 + 1] per covered row.
  mutable std::int32_t grid_x0_ = 0;
  mutable std::int32_t grid_y0_ = 0;
  mutable std::int32_t grid_w_ = 0;
  mutable std::int32_t grid_h_ = 0;
  mutable std::vector<std::uint32_t> starts_;
  mutable std::vector<NodeId> members_;
  mutable std::vector<Vec2> member_pos_;
  mutable std::vector<Vec2> positions_;  // rebuild scratch, id order
  mutable std::vector<std::uint32_t> cursor_;  // rebuild scratch (fill slots)
  // One bit per node id, set for each confirmed neighbor and cleared as the
  // query emits them in ascending id order; all zero between queries.
  mutable std::vector<std::uint64_t> mask_;
  mutable Stats stats_;
};

}  // namespace xfa
