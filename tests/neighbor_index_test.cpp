// Property tests: the grid-pruned neighbor queries must be exactly the
// brute-force O(N^2) oracle — same nodes, same ascending-id order — across
// waypoint motion, cell-boundary geometry, and fault-injected link states.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "mobility/waypoint.h"
#include "net/channel.h"
#include "net/neighbor_index.h"
#include "net/node.h"
#include "sim/simulator.h"

namespace xfa {
namespace {

/// Mobility stub with directly scriptable positions (and optional linear
/// drift), for exact boundary-geometry control.
class ScriptedMobility final : public MobilityModel {
 public:
  explicit ScriptedMobility(std::vector<Vec2> positions,
                            std::vector<Vec2> velocities = {})
      : positions_(std::move(positions)), velocities_(std::move(velocities)) {}

  Vec2 position(NodeId node, SimTime t) const override {
    Vec2 p = positions_[static_cast<std::size_t>(node)];
    if (!velocities_.empty()) {
      const Vec2 v = velocities_[static_cast<std::size_t>(node)];
      p.x += v.x * t;
      p.y += v.y * t;
    }
    return p;
  }
  double speed(NodeId, SimTime) const override { return 0; }

 private:
  std::vector<Vec2> positions_;
  std::vector<Vec2> velocities_;
};

/// The oracle the grid must reproduce exactly: every other node, ascending
/// id, whose exact position at `t` is within `range` (inclusive).
std::vector<NodeId> brute_force(const MobilityModel& mobility,
                                std::size_t node_count, NodeId self, SimTime t,
                                double range) {
  std::vector<NodeId> out;
  const Vec2 center = mobility.position(self, t);
  for (NodeId other = 0; other < static_cast<NodeId>(node_count); ++other) {
    if (other == self) continue;
    if (distance2(center, mobility.position(other, t)) <= range * range)
      out.push_back(other);
  }
  return out;
}

TEST(NeighborIndexTest, MatchesBruteForceAcrossWaypointSnapshots) {
  const std::size_t kNodes = 40;
  const double kRange = 250.0;
  MobilityConfig config;  // 1000x1000, 20 m/s: the paper's topology
  RandomWaypointMobility mobility(kNodes, config, Rng(42));

  NeighborIndex index(mobility, kRange, config.max_speed);
  index.set_node_count(kNodes);
  ASSERT_TRUE(index.enabled());

  // Non-decreasing query times (the mobility model's contract), spanning
  // many slack-budget windows so rebuilds and stale-grid queries both occur.
  std::vector<NodeId> pruned;
  for (SimTime t = 0; t <= 120.0; t += 1.7) {
    for (NodeId self = 0; self < static_cast<NodeId>(kNodes); ++self) {
      pruned.clear();
      index.in_range_of(self, t, pruned);
      EXPECT_EQ(pruned, brute_force(mobility, kNodes, self, t, kRange))
          << "self=" << self << " t=" << t;
    }
  }
  EXPECT_GT(index.stats().rebuilds, 1u);  // the slack budget did its job
  EXPECT_GT(index.stats().queries, 0u);
  EXPECT_GE(index.stats().candidates, index.stats().confirmed);
}

TEST(NeighborIndexTest, DisabledIndexIsTheExactLinearScan) {
  const std::size_t kNodes = 25;
  const double kRange = 250.0;
  MobilityConfig config;
  RandomWaypointMobility mobility(kNodes, config, Rng(7));

  NeighborIndex index(mobility, kRange, /*max_speed=*/-1.0);
  index.set_node_count(kNodes);
  ASSERT_FALSE(index.enabled());

  std::vector<NodeId> out;
  for (SimTime t = 0; t <= 30.0; t += 3.1) {
    for (NodeId self = 0; self < static_cast<NodeId>(kNodes); ++self) {
      out.clear();
      index.in_range_of(self, t, out);
      EXPECT_EQ(out, brute_force(mobility, kNodes, self, t, kRange));
    }
  }
  EXPECT_EQ(index.stats().rebuilds, 0u);
}

TEST(NeighborIndexTest, CellBoundaryGeometryIsExact) {
  // Cell size equals the range (100 m): nodes sitting exactly on cell edges,
  // exactly at range (inclusive), just outside, and at negative coordinates.
  const double kRange = 100.0;
  const std::vector<Vec2> positions = {
      {0, 0},                    // 0: query center, on a cell corner
      {100, 0},                  // 1: exactly at range -> in (<=)
      {100.0000001, 0},          // 2: just outside -> out
      {60, 80},                  // 3: 3-4-5 triangle, exactly at range -> in
      {-100, 0},                 // 4: exactly at range, negative cell -> in
      {-70.7, -70.7},            // 5: ~99.98 m -> in
      {-71, -71},                // 6: ~100.41 m -> out
      {0, 100},                  // 7: exactly at range, on a cell edge -> in
      {199.9, 0},                // 8: neighbor-of-neighbor cell -> out
      {0.5, 0.5},                // 9: same cell -> in
  };
  ScriptedMobility mobility(positions);
  NeighborIndex index(mobility, kRange, /*max_speed=*/0.0);
  index.set_node_count(positions.size());
  ASSERT_TRUE(index.enabled());

  std::vector<NodeId> out;
  index.in_range_of(0, 0.0, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 3, 4, 5, 7, 9}));
  // And the full pairwise property, not just the hand-checked center.
  for (NodeId self = 0; self < static_cast<NodeId>(positions.size()); ++self) {
    out.clear();
    index.in_range_of(self, 0.0, out);
    EXPECT_EQ(out,
              brute_force(mobility, positions.size(), self, 0.0, kRange))
        << "self=" << self;
  }
}

TEST(NeighborIndexTest, StaleGridWithDriftingNodesStaysExact) {
  // Nodes drift at exactly the promised max speed; between rebuilds the
  // widened query radius must keep the pruning conservative.
  const double kRange = 100.0;
  const double kMaxSpeed = 10.0;
  std::vector<Vec2> positions;
  std::vector<Vec2> velocities;
  for (int i = 0; i < 30; ++i) {
    positions.push_back({static_cast<double>(i % 6) * 55.0,
                         static_cast<double>(i / 6) * 55.0});
    // Alternate headings, all at |v| == kMaxSpeed.
    velocities.push_back(i % 2 == 0 ? Vec2{kMaxSpeed, 0}
                                    : Vec2{0, -kMaxSpeed});
  }
  ScriptedMobility mobility(positions, velocities);
  NeighborIndex index(mobility, kRange, kMaxSpeed);
  index.set_node_count(positions.size());

  std::vector<NodeId> out;
  for (SimTime t = 0; t <= 20.0; t += 0.25) {
    for (NodeId self = 0; self < static_cast<NodeId>(positions.size());
         ++self) {
      out.clear();
      index.in_range_of(self, t, out);
      EXPECT_EQ(out, brute_force(mobility, positions.size(), self, t, kRange))
          << "self=" << self << " t=" << t;
    }
  }
  EXPECT_GT(index.stats().rebuilds, 1u);
}

TEST(NeighborIndexTest, SlackBandEdgesAreExact) {
  // Built at t = 0 and queried at t = 1 with 10 m of slack: every node's
  // true distance to the stationary center lies within d_b +- 10 of its
  // bucketed distance d_b, and the snapshot decides only outside the band
  // [R - s - m, R + s + m] (m = 1e-6 R = 1e-4 m). Nodes move radially or
  // tangentially at exactly the promised speed; kHair (< m) sits just inside
  // or outside each edge.
  const double kRange = 100.0;
  const double kMaxSpeed = 10.0;
  const double kHair = 5e-5;
  const double kOutside = 2e-4;  // beyond the margin
  const std::vector<Vec2> positions = {
      {0, 0},                               // 0: center
      {110, 0},                             // 1: R + s inward -> 100, in
      {110 + kHair, 0},                     // 2: R + s + hair inward, out
      {-(110 - kHair), 0},                  // 3: R + s - hair inward, in
      {0, 110 + kOutside},                  // 4: past the band, out
      {0, 90},                              // 5: R - s outward -> 100, in
      {0, 90 + kHair},                      // 6: R - s + hair outward, out
      {0, -(90 - kHair)},                   // 7: R - s - hair outward, in
      {90 - kOutside, 0},                   // 8: inside the band, in
      {60, 80},                             // 9: R outward -> 110, out
      {-60, 80},                            // 10: R inward -> 90, in
      {80, -60},                            // 11: R tangential -> 100.5, out
      {-(100 + kHair), 0},                  // 12: R + hair inward, in
      {0, -(100 - kHair)},                  // 13: R - hair outward, out
  };
  const std::vector<Vec2> velocities = {
      {0, 0},   {-10, 0}, {-10, 0}, {10, 0}, {0, -10}, {0, 10}, {0, 10},
      {0, -10}, {10, 0},  {6, 8},   {6, -8}, {6, 8},   {10, 0}, {0, -10},
  };
  ScriptedMobility mobility(positions, velocities);
  NeighborIndex index(mobility, kRange, kMaxSpeed);
  index.set_node_count(positions.size());

  std::vector<NodeId> out;
  index.in_range_of(0, 0.0, out);  // builds the snapshot
  EXPECT_EQ(out, brute_force(mobility, positions.size(), 0, 0.0, kRange));

  const NeighborIndex::Stats before = index.stats();
  out.clear();
  index.in_range_of(0, 1.0, out);
  EXPECT_EQ(out, (std::vector<NodeId>{1, 3, 5, 7, 8, 10, 12}));
  EXPECT_EQ(out, brute_force(mobility, positions.size(), 0, 1.0, kRange));
  // Nodes 4 and 8 are decided from the snapshot, the other eleven in the
  // band from their true positions.
  EXPECT_EQ(index.stats().candidates - before.candidates, 13u);
  EXPECT_EQ(index.stats().exact - before.exact, 11u);
  EXPECT_EQ(index.stats().rebuilds, 1u);

  // Every pair, up to the full slack budget (t = 2.5, s = 25 = range/4,
  // still the first snapshot) and across the rebuild after it.
  for (const SimTime t : {1.0, 1.75, 2.5, 2.75, 4.0}) {
    for (NodeId self = 0; self < static_cast<NodeId>(positions.size());
         ++self) {
      out.clear();
      index.in_range_of(self, t, out);
      EXPECT_EQ(out, brute_force(mobility, positions.size(), self, t, kRange))
          << "self=" << self << " t=" << t;
    }
    if (t == 2.5) {
      EXPECT_EQ(index.stats().rebuilds, 1u);
    }
  }
  EXPECT_EQ(index.stats().rebuilds, 2u);
}

TEST(NeighborIndexTest, MatchesBruteForceAbove64Nodes) {
  // 130 ids fill three mask words, the last one partially.
  const std::size_t kNodes = 130;
  const double kRange = 250.0;
  MobilityConfig config;  // 1000x1000, 20 m/s
  RandomWaypointMobility mobility(kNodes, config, Rng(64));
  NeighborIndex index(mobility, kRange, config.max_speed);
  index.set_node_count(kNodes);

  // Each snapshot is queried at its build time, mid-way and at exactly the
  // rebuild threshold (3.125 s x 20 m/s = range/4); the next query rebuilds.
  // Every time is a multiple of 1/8 s, so the threshold product is exact.
  std::vector<NodeId> out;
  std::uint64_t snapshots = 0;
  for (SimTime base = 0; base <= 40.0; base += 3.25) {
    ++snapshots;
    for (const SimTime t : {base, base + 1.5, base + 3.125}) {
      for (NodeId self = 0; self < static_cast<NodeId>(kNodes); ++self) {
        out.clear();
        index.in_range_of(self, t, out);
        ASSERT_EQ(out, brute_force(mobility, kNodes, self, t, kRange))
            << "self=" << self << " t=" << t;
      }
    }
  }
  const NeighborIndex::Stats& stats = index.stats();
  EXPECT_EQ(stats.rebuilds, snapshots);
  // The band is neither empty nor everything: most candidates are decided
  // from the snapshot.
  EXPECT_GT(stats.exact, 0u);
  EXPECT_LT(stats.exact, stats.candidates);
  EXPECT_GE(stats.candidates, stats.confirmed);
}

// ---------------------------------------------------------------------------
// Whole-channel equivalence: a grid-enabled channel must behave identically
// to a grid-disabled one — same deliveries, same RNG draw order, same stats —
// including under fault-injected link/node state.
// ---------------------------------------------------------------------------

class CountingProtocol final : public RoutingProtocol {
 public:
  void send_data(Packet&&) override {}
  void receive(PacketPtr pkt, NodeId from) override {
    received.emplace_back(pkt->uid, from);
  }
  void link_failure(const Packet& pkt, NodeId to) override {
    failures.emplace_back(pkt.uid, to);
  }
  double average_route_length() const override { return 0; }
  std::size_t route_count() const override { return 0; }
  const RoutingStats& stats() const override { return stats_; }
  const char* name() const override { return "counting-stub"; }

  std::vector<std::pair<std::uint64_t, NodeId>> received;
  RoutingStats stats_;
  std::vector<std::pair<std::uint64_t, NodeId>> failures;
};

/// Deterministic fault state: pure functions of (ids, call count), so two
/// channels consuming it in the same order see the same fault timeline.
class ScriptedFaults final : public FaultModel {
 public:
  bool node_down(NodeId node) const override { return node == 7; }
  bool link_down(NodeId a, NodeId b) const override {
    return (a + b) % 11 == 0;
  }
  bool loses_delivery() override { return ++draws_ % 13 == 0; }
  bool corrupts_delivery() override { return ++draws_ % 17 == 0; }
  bool duplicates_delivery() override { return ++draws_ % 19 == 0; }
  SimTime extra_delay() override { return (++draws_ % 5) * 1e-4; }

  std::uint64_t draws() const { return draws_; }

 private:
  std::uint64_t draws_ = 0;
};

struct SimRig {
  explicit SimRig(double max_node_speed, std::size_t n = 30)
      : sim(99), mobility(n, MobilityConfig{}, Rng(5)) {
    ChannelConfig config;
    config.loss_rate = 0.1;
    config.max_node_speed = max_node_speed;
    channel = std::make_unique<Channel>(sim, mobility, config);
    channel->set_fault_model(&faults);
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<Node>(sim, *channel, static_cast<NodeId>(i)));
      channel->register_node(*nodes.back());
      auto protocol = std::make_unique<CountingProtocol>();
      protocols.push_back(protocol.get());
      nodes.back()->set_routing(std::move(protocol));
    }
  }

  void drive() {
    // Broadcasts and unicasts from rotating senders across enough sim time
    // to force several grid rebuilds (slack budget = range/4 = 62.5 m at
    // 20 m/s -> ~3.1 s between rebuilds).
    const std::size_t n = nodes.size();
    for (int i = 0; i < 400; ++i) {
      const SimTime when = i * 0.05;
      const NodeId from = static_cast<NodeId>(i % n);
      const NodeId to =
          i % 3 == 0 ? kBroadcast : static_cast<NodeId>((i * 7) % n);
      sim.at(when, [this, from, to] {
        Packet pkt;
        pkt.src = from;
        pkt.dst = to;
        channel->transmit(from, std::move(pkt), to);
      });
    }
    sim.run();
  }

  Simulator sim;
  RandomWaypointMobility mobility;
  ScriptedFaults faults;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<CountingProtocol*> protocols;
};

TEST(NeighborIndexTest, GridOnAndGridOffChannelsAreTraceIdentical) {
  SimRig with_grid(/*max_node_speed=*/20.0);
  SimRig without_grid(/*max_node_speed=*/-1.0);
  ASSERT_TRUE(with_grid.channel->neighbor_index().enabled());
  ASSERT_FALSE(without_grid.channel->neighbor_index().enabled());

  with_grid.drive();
  without_grid.drive();

  const ChannelStats& a = with_grid.channel->stats();
  const ChannelStats& b = without_grid.channel->stats();
  EXPECT_EQ(a.transmissions, b.transmissions);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.taps, b.taps);
  EXPECT_EQ(a.random_losses, b.random_losses);
  EXPECT_EQ(a.unicast_failures, b.unicast_failures);
  EXPECT_EQ(a.fault_link_drops, b.fault_link_drops);
  EXPECT_EQ(a.fault_burst_losses, b.fault_burst_losses);
  EXPECT_EQ(a.fault_corrupted, b.fault_corrupted);
  EXPECT_EQ(a.fault_duplicates, b.fault_duplicates);
  // Fault draws are consumed once per delivery decision: identical counts
  // prove the two channels made the decisions in the same order.
  EXPECT_EQ(with_grid.faults.draws(), without_grid.faults.draws());
  for (std::size_t i = 0; i < with_grid.protocols.size(); ++i) {
    EXPECT_EQ(with_grid.protocols[i]->received,
              without_grid.protocols[i]->received)
        << "node " << i;
    EXPECT_EQ(with_grid.protocols[i]->failures,
              without_grid.protocols[i]->failures)
        << "node " << i;
  }
  EXPECT_GT(with_grid.channel->neighbor_index().stats().rebuilds, 1u);
}

}  // namespace
}  // namespace xfa
