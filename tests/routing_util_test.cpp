// Unit tests: shared routing-agent utilities (send buffer, flood-id cache)
// and the route discovery both on-demand agents share.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "mobility/static.h"
#include "net/channel.h"
#include "net/node.h"
#include "routing/aodv/aodv.h"
#include "routing/dsr/dsr.h"
#include "routing/route_events.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace xfa {
namespace {

Packet data_packet(NodeId dst, std::uint32_t seq) {
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.dst = dst;
  pkt.seq = seq;
  return pkt;
}

TEST(SendBuffer, TakeReturnsFifoOrder) {
  SendBuffer buffer;
  for (std::uint32_t s = 0; s < 5; ++s)
    EXPECT_TRUE(buffer.push(data_packet(7, s)));
  EXPECT_TRUE(buffer.has_packets_for(7));
  EXPECT_EQ(buffer.size_for(7), 5u);
  const auto taken = buffer.take(7);
  ASSERT_EQ(taken.size(), 5u);
  for (std::uint32_t s = 0; s < 5; ++s) EXPECT_EQ(taken[s].seq, s);
  EXPECT_FALSE(buffer.has_packets_for(7));
}

TEST(SendBuffer, PerDestinationIsolation) {
  SendBuffer buffer;
  buffer.push(data_packet(1, 0));
  buffer.push(data_packet(2, 1));
  EXPECT_EQ(buffer.size_for(1), 1u);
  EXPECT_EQ(buffer.size_for(2), 1u);
  EXPECT_EQ(buffer.take(1).size(), 1u);
  EXPECT_TRUE(buffer.has_packets_for(2));
}

TEST(SendBuffer, OverflowDropsOldest) {
  SendBuffer buffer(/*max_per_dst=*/3);
  for (std::uint32_t s = 0; s < 3; ++s)
    EXPECT_TRUE(buffer.push(data_packet(9, s)));
  EXPECT_FALSE(buffer.push(data_packet(9, 3)));  // overflow signalled
  const auto taken = buffer.take(9);
  ASSERT_EQ(taken.size(), 3u);
  EXPECT_EQ(taken.front().seq, 1u);  // seq 0 was evicted
  EXPECT_EQ(taken.back().seq, 3u);
}

TEST(SendBuffer, TakeOnEmptyDestination) {
  SendBuffer buffer;
  EXPECT_TRUE(buffer.take(42).empty());
  EXPECT_EQ(buffer.size_for(42), 0u);
}

TEST(FloodIdCache, FirstSightingIsFresh) {
  FloodIdCache cache;
  EXPECT_FALSE(cache.seen_before(3, 7, 0.0));
  EXPECT_TRUE(cache.seen_before(3, 7, 1.0));
}

TEST(FloodIdCache, DistinctOriginsAndIdsAreIndependent) {
  FloodIdCache cache;
  EXPECT_FALSE(cache.seen_before(3, 7, 0.0));
  EXPECT_FALSE(cache.seen_before(4, 7, 0.0));  // same id, other origin
  EXPECT_FALSE(cache.seen_before(3, 8, 0.0));  // same origin, other id
}

TEST(FloodIdCache, EntriesExpire) {
  FloodIdCache cache(/*ttl=*/10.0);
  EXPECT_FALSE(cache.seen_before(3, 7, 0.0));
  EXPECT_TRUE(cache.seen_before(3, 7, 5.0));    // refreshed to 15
  EXPECT_FALSE(cache.seen_before(3, 7, 20.0));  // expired: fresh again
}

TEST(FloodIdCache, NegativeNodeIdsHashDistinctly) {
  FloodIdCache cache;
  // Forged floods use origin ids in the normal range but phantom targets
  // elsewhere; make sure the packed 64-bit key keeps ids apart.
  EXPECT_FALSE(cache.seen_before(100000, 1, 0.0));
  EXPECT_FALSE(cache.seen_before(0, 1, 0.0));
  EXPECT_TRUE(cache.seen_before(100000, 1, 0.0));
}

TEST(FloodIdCache, SweptMatchesUnsweptReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // Times and the ttl sit on a 0.25 s grid, so a refreshed expiry often
    // equals a later `now` exactly: the tie that still counts as seen.
    const SimTime ttl = 0.25 * static_cast<double>(4 + rng.uniform_int(20));
    FloodIdCache cache(ttl);
    // The cache before sweeping: never erases, an expired pair answers as
    // unseen and is refreshed.
    std::map<std::pair<NodeId, std::uint32_t>, SimTime> reference;
    SimTime now = 0;
    std::uint32_t newest_id = 0;
    std::size_t fresh = 0, seen = 0, expired = 0;
    for (int op = 0; op < 20000; ++op) {
      SCOPED_TRACE(op);
      if (rng.chance(0.3)) {
        now += 0.25 * static_cast<double>(rng.uniform_int(3));
      }
      if (rng.chance(0.05)) ++newest_id;
      // Origins include negative ids; flood ids are mostly recent, sometimes
      // any id ever used, so that expired pairs come back.
      const auto origin = static_cast<NodeId>(rng.uniform_int(24)) - 2;
      const std::uint32_t id =
          rng.chance(0.9)
              ? newest_id + static_cast<std::uint32_t>(rng.uniform_int(4))
              : static_cast<std::uint32_t>(rng.uniform_int(newest_id + 1));
      const auto [it, inserted] =
          reference.emplace(std::make_pair(origin, id), now + ttl);
      bool want = false;
      if (inserted) {
        ++fresh;
      } else {
        want = it->second >= now;
        ++(want ? seen : expired);
        it->second = now + ttl;
      }
      ASSERT_EQ(cache.seen_before(origin, id, now), want);
    }
    // Every answer kind occurred, and the sweeps kept the map well below the
    // reference, which holds every pair ever heard.
    EXPECT_GT(fresh, 0u);
    EXPECT_GT(seen, 0u);
    EXPECT_GT(expired, 0u);
    EXPECT_LT(cache.size(), reference.size() / 4);
  }
}

// ---------------------------------------------------------------------------
// Route discovery at a single router, pinned for both on-demand agents: the
// request is repeated after 1 s and 2 s more (binary backoff), the discovery
// gives up 4 s after the last request and drops what it buffered, one
// discovery per destination is in flight, and a retry timer left over from
// an answered discovery never touches a later one.
// ---------------------------------------------------------------------------

enum class AgentKind { Aodv, Dsr };
void PrintTo(AgentKind kind, std::ostream* os) {
  *os << (kind == AgentKind::Aodv ? "Aodv" : "Dsr");
}

class DiscoveryConformance : public ::testing::TestWithParam<AgentKind> {
 protected:
  // Node 0 (the source, audited) and node 1, `spacing` metres apart with a
  // 250 m radio range.
  void build(double spacing) {
    mobility = std::make_unique<StaticPositions>(
        StaticPositions::line(2, spacing));
    ChannelConfig config;
    config.range_m = 250;
    config.max_jitter_s = 0.0005;
    const bool dsr = GetParam() == AgentKind::Dsr;
    config.promiscuous_taps = dsr;  // DSR learns from overheard packets
    channel = std::make_unique<Channel>(sim, *mobility, config);
    for (NodeId i = 0; i < 2; ++i) {
      nodes.push_back(std::make_unique<Node>(sim, *channel, i));
      channel->register_node(*nodes.back());
      Node& node = *nodes.back();
      if (dsr) {
        node.set_routing(std::make_unique<Dsr>(node));
      } else {
        node.set_routing(std::make_unique<Aodv>(node));
      }
      node.routing().start();
    }
    nodes[0]->attach_audit(&audit);
  }

  void send_to_1(std::uint32_t seq) {
    nodes[0]->send_data(1, /*flow_id=*/1, seq, 512, false);
  }
  const RoutingStats& stats() const { return nodes[0]->routing().stats(); }
  std::vector<SimTime> rreqs_sent() const {
    return audit.packet_times(AuditPacketType::RouteRequest,
                              FlowDirection::Sent);
  }
  std::vector<SimTime> drops() const {
    return audit.packet_times(AuditPacketType::RouteAll,
                              FlowDirection::Dropped);
  }

  Simulator sim{5};
  std::unique_ptr<StaticPositions> mobility;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Node>> nodes;
  AuditLog audit;
};

// Times built by adding delays to a timer's start can differ from the
// expected sum in the last bit.
void expect_times(const std::vector<SimTime>& got,
                  const std::vector<SimTime>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i)
    EXPECT_NEAR(got[i], want[i], 1e-9) << "entry " << i;
}

TEST_P(DiscoveryConformance, RetriesBackOffThenGiveUp) {
  build(10000);  // node 1 is out of range
  const SimTime t0 = 2.5;
  sim.run_until(t0);
  send_to_1(0);
  sim.run_until(t0 + 0.5);
  send_to_1(1);  // joins the discovery in flight
  EXPECT_EQ(stats().discoveries_started, 1u);

  sim.run_until(t0 + 6.9);
  expect_times(rreqs_sent(), {t0, t0 + 1, t0 + 3});
  EXPECT_EQ(stats().discoveries_failed, 0u);
  EXPECT_TRUE(drops().empty());

  sim.run_until(t0 + 30);
  EXPECT_EQ(rreqs_sent().size(), 3u);
  EXPECT_EQ(stats().discoveries_started, 3u);
  EXPECT_EQ(stats().discoveries_succeeded, 0u);
  EXPECT_EQ(stats().discoveries_failed, 1u);
  EXPECT_EQ(stats().data_dropped_no_route, 2u);
  expect_times(drops(), {t0 + 7, t0 + 7});
  EXPECT_EQ(nodes[1]->data_delivered(), 0u);
}

TEST_P(DiscoveryConformance, AnsweredDiscoverySendsOneRequest) {
  build(100);
  send_to_1(0);  // t0 = 0, before any HELLO could install a route
  sim.run_until(5);
  expect_times(rreqs_sent(), {0.0});
  EXPECT_EQ(stats().discoveries_started, 1u);
  EXPECT_EQ(stats().discoveries_succeeded, 1u);
  EXPECT_EQ(stats().discoveries_failed, 0u);
  EXPECT_TRUE(drops().empty());
  EXPECT_EQ(nodes[1]->data_delivered(), 1u);
}

TEST_P(DiscoveryConformance, StaleRetryTimerLeavesNewDiscoveryAlone) {
  build(100);
  send_to_1(0);  // discovery A at t0 = 0, answered at once
  sim.run_until(0.5);
  ASSERT_EQ(stats().discoveries_succeeded, 1u);
  // Node 1 leaves; the next packet's unicast fails and the link failure
  // starts discovery B for the same destination before A's timer (t0 + 1).
  mobility->move(1, {10000, 0});
  send_to_1(1);
  sim.run_until(0.9);
  ASSERT_EQ(rreqs_sent().size(), 2u);
  const SimTime t1 = rreqs_sent()[1];
  ASSERT_GT(t1, 0.5);

  sim.run_until(t1 + 30);
  // A's timer fires at t0 + 1 and sends nothing: B alone retries.
  expect_times(rreqs_sent(), {0.0, t1, t1 + 1, t1 + 3});
  EXPECT_EQ(stats().discoveries_started, 4u);
  EXPECT_EQ(stats().discoveries_failed, 1u);
  expect_times(drops(), {t1 + 7});
}

INSTANTIATE_TEST_SUITE_P(Agents, DiscoveryConformance,
                         ::testing::Values(AgentKind::Aodv, AgentKind::Dsr));

}  // namespace
}  // namespace xfa
