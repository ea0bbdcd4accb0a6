// Unit tests: AODV route table, neighbor table and agent behaviour on fixed
// topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "audit/audit.h"
#include "mobility/static.h"
#include "net/channel.h"
#include "net/node.h"
#include "routing/aodv/aodv.h"
#include "routing/aodv/neighbor_table.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/cbr.h"

namespace xfa {
namespace {

// ---------------------------------------------------------------------------
// Route table.
// ---------------------------------------------------------------------------

TEST(AodvRouteTable, AddLookupInvalidate) {
  AodvRouteTable table;
  EXPECT_EQ(table.lookup(5, 0.0), nullptr);
  EXPECT_EQ(table.update(5, 2, 3, 10, true, 100.0, 0.0), RouteUpdate::Added);
  const AodvRouteEntry* entry = table.lookup(5, 1.0);
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->next_hop, 2);
  EXPECT_EQ(entry->hop_count, 3);
  EXPECT_TRUE(table.invalidate(5, 2.0));
  EXPECT_EQ(table.lookup(5, 3.0), nullptr);
  EXPECT_NE(table.lookup_any(5), nullptr);  // seqno memory survives
}

TEST(AodvRouteTable, FresherSeqnoWins) {
  AodvRouteTable table;
  table.update(5, 2, 3, 10, true, 100.0, 0.0);
  // Stale seqno rejected even with better hop count.
  EXPECT_EQ(table.update(5, 3, 1, 9, true, 100.0, 0.0),
            RouteUpdate::Rejected);
  // Fresher seqno accepted even with worse hop count.
  EXPECT_EQ(table.update(5, 4, 7, 11, true, 100.0, 0.0),
            RouteUpdate::Refreshed);
  EXPECT_EQ(table.lookup(5, 1.0)->next_hop, 4);
}

TEST(AodvRouteTable, EqualSeqnoPrefersFewerHops) {
  AodvRouteTable table;
  table.update(5, 2, 3, 10, true, 100.0, 0.0);
  EXPECT_EQ(table.update(5, 3, 2, 10, true, 100.0, 0.0),
            RouteUpdate::Refreshed);
  EXPECT_EQ(table.update(5, 4, 5, 10, true, 100.0, 0.0),
            RouteUpdate::Rejected);
}

TEST(AodvRouteTable, MaxSeqnoIsNeverSuperseded) {
  // The black hole persistence property the paper reports.
  AodvRouteTable table;
  table.update(5, 66, 1, kMaxSeqNo, true, 1e18, 0.0);
  EXPECT_EQ(table.update(5, 2, 1, 12345, true, 1e18, 1.0),
            RouteUpdate::Rejected);
  EXPECT_EQ(table.lookup(5, 2.0)->next_hop, 66);
}

TEST(AodvRouteTable, ExpiredEntryCanBeReplaced) {
  AodvRouteTable table;
  table.update(5, 2, 3, 10, true, 10.0, 0.0);
  // After expiry the entry is unusable, so even a stale seqno may replace it.
  EXPECT_EQ(table.update(5, 3, 2, 1, true, 100.0, 20.0), RouteUpdate::Added);
  EXPECT_EQ(table.lookup(5, 21.0)->next_hop, 3);
}

TEST(AodvRouteTable, ExpiryPurge) {
  AodvRouteTable table;
  table.update(5, 2, 3, 10, true, 10.0, 0.0);
  table.update(6, 2, 1, 4, true, 50.0, 0.0);
  EXPECT_EQ(table.lookup(5, 20.0), nullptr);  // expired entries don't match
  EXPECT_EQ(table.purge_expired(20.0), 1u);
  EXPECT_EQ(table.valid_route_count(20.0), 1u);
}

TEST(AodvRouteTable, InvalidateViaCollectsBrokenDestinations) {
  AodvRouteTable table;
  table.update(5, 2, 3, 10, true, 100.0, 0.0);
  table.update(6, 2, 2, 11, true, 100.0, 0.0);
  table.update(7, 3, 1, 12, true, 100.0, 0.0);
  const auto broken = table.invalidate_via(2, 1.0);
  EXPECT_EQ(broken.size(), 2u);
  EXPECT_EQ(table.lookup(7, 2.0)->next_hop, 3);
}

TEST(AodvRouteTable, AverageHopCount) {
  AodvRouteTable table;
  table.update(5, 2, 2, 10, true, 100.0, 0.0);
  table.update(6, 2, 4, 11, true, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(table.average_hop_count(1.0), 3.0);
}

TEST(AodvRouteTable, InvalidationBumpsSeqnoForRecovery) {
  AodvRouteTable table;
  table.update(5, 2, 3, 10, true, 100.0, 0.0);
  table.invalidate(5, 1.0);
  EXPECT_EQ(table.lookup_any(5)->seqno, 11u);
}

// ---------------------------------------------------------------------------
// Neighbor table.
// ---------------------------------------------------------------------------

TEST(NeighborTable, MatchesMapReference) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    // The id pool mixes ids anywhere up to 10^6, ids that share their low
    // ten bits (one home slot at every size up to 1024 slots), and ids whose
    // home is one of the last slots at every size, so their probe chains
    // wrap past the end of the table.
    std::vector<NodeId> pool;
    for (int k = 0; k < 100; ++k) {
      pool.push_back(static_cast<NodeId>(rng.uniform_int(1000001)));
    }
    for (NodeId k = 1; k <= 40; ++k) pool.push_back(k * 1024 + 5);
    for (NodeId k = 0; k < 40; ++k) pool.push_back(k * 1024 + 1023 - k % 3);

    NeighborTable table;
    std::map<NodeId, SimTime> reference;
    std::size_t peak_slots = 0, absent_erases = 0;
    SimTime now = 0;
    for (int op = 0; op < 40000; ++op) {
      SCOPED_TRACE(op);
      now += 0.25;
      const NodeId id = pool[rng.uniform_int(pool.size())];
      // Phases of 5000 ops alternate between filling and draining, so the
      // table both grows and runs nearly empty again.
      const double insert_share = (op / 5000) % 2 == 0 ? 0.7 : 0.3;
      if (rng.chance(insert_share)) {
        const bool added = reference.insert_or_assign(id, now).second;
        ASSERT_EQ(table.assign(id, now), added);
      } else if (rng.chance(0.5)) {
        if (reference.erase(id) == 0) ++absent_erases;
        table.erase(id);
      } else {
        const auto it = reference.find(id);
        const SimTime* heard = table.find(id);
        ASSERT_EQ(heard != nullptr, it != reference.end());
        if (heard != nullptr) {
          ASSERT_EQ(*heard, it->second);
        }
      }
      ASSERT_EQ(table.size(), reference.size());
      ASSERT_GE(table.slot_count(), 2 * table.size());
      peak_slots = std::max(peak_slots, table.slot_count());
      if (op % 1000 == 999) {
        for (const NodeId probe : pool) {
          const auto it = reference.find(probe);
          const SimTime* heard = table.find(probe);
          ASSERT_EQ(heard != nullptr, it != reference.end()) << probe;
          if (heard != nullptr) {
            ASSERT_EQ(*heard, it->second);
          }
        }
      }
    }
    EXPECT_GE(peak_slots, 256u);
    EXPECT_GT(absent_erases, 1000u);
  }
}

TEST(NeighborTable, SlotsStayProportionalToDegree) {
  // Twenty neighbors with ids near 10^6: an id-indexed array would need a
  // million entries, the table needs the next power of two above twice 20.
  NeighborTable table;
  for (NodeId k = 0; k < 20; ++k) {
    EXPECT_TRUE(table.assign(1000000 - 37 * k, static_cast<SimTime>(k)));
  }
  EXPECT_FALSE(table.assign(1000000, 99.0));
  EXPECT_EQ(table.size(), 20u);
  EXPECT_LE(table.slot_count(), 64u);
  for (NodeId k = 1; k < 20; ++k) {
    ASSERT_NE(table.find(1000000 - 37 * k), nullptr);
    EXPECT_EQ(*table.find(1000000 - 37 * k), static_cast<SimTime>(k));
  }
  EXPECT_EQ(*table.find(1000000), 99.0);
  EXPECT_EQ(table.find(999999), nullptr);
}

// ---------------------------------------------------------------------------
// Agent on fixed line topologies.
// ---------------------------------------------------------------------------

struct AodvRig {
  AodvRig(std::size_t n, double spacing, double range = 250)
      : sim(9), mobility(StaticPositions::line(n, spacing)) {
    ChannelConfig config;
    config.range_m = range;
    config.max_jitter_s = 0.0005;
    config.promiscuous_taps = false;
    channel = std::make_unique<Channel>(sim, mobility, config);
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
      nodes.push_back(std::make_unique<Node>(sim, *channel, i));
      channel->register_node(*nodes.back());
      audits.push_back(std::make_unique<AuditLog>());
      nodes.back()->attach_audit(audits.back().get());
      nodes.back()->set_routing(std::make_unique<Aodv>(*nodes.back()));
      nodes.back()->routing().start();
    }
  }

  Aodv& aodv(NodeId id) {
    return static_cast<Aodv&>(nodes[static_cast<std::size_t>(id)]->routing());
  }
  Node& node(NodeId id) { return *nodes[static_cast<std::size_t>(id)]; }
  AuditLog& audit(NodeId id) {
    return *audits[static_cast<std::size_t>(id)];
  }

  Simulator sim;
  StaticPositions mobility;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<std::unique_ptr<AuditLog>> audits;
};

TEST(AodvAgent, DeliversOverMultipleHops) {
  // 5 nodes, 200 m apart with 250 m range: strictly a chain 0-1-2-3-4.
  AodvRig rig(5, 200);
  CbrSink sink(rig.node(4), /*flow_id=*/1);
  rig.node(0).send_data(4, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  EXPECT_EQ(sink.packets_received(), 1u);
  EXPECT_EQ(rig.node(4).data_delivered(), 1u);
  // The route at the source spans 4 hops.
  const AodvRouteEntry* route = rig.aodv(0).table().lookup(4, rig.sim.now());
  ASSERT_NE(route, nullptr);
  EXPECT_EQ(route->hop_count, 4);
  EXPECT_EQ(route->next_hop, 1);
}

TEST(AodvAgent, RouteDiscoveryPopulatesIntermediateTables) {
  AodvRig rig(4, 200);
  CbrSink sink(rig.node(3), 1);
  rig.node(0).send_data(3, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  // Node 1 must know both endpoints (reverse route to 0, forward to 3).
  EXPECT_NE(rig.aodv(1).table().lookup(0, rig.sim.now()), nullptr);
  EXPECT_NE(rig.aodv(1).table().lookup(3, rig.sim.now()), nullptr);
}

TEST(AodvAgent, BuffersDuringDiscoveryAndFlushes) {
  AodvRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  // Burst of packets before any route exists.
  for (std::uint32_t s = 0; s < 5; ++s)
    rig.node(0).send_data(2, 1, s, 512, false);
  rig.sim.run_until(5.0);
  EXPECT_EQ(sink.packets_received(), 5u);
}

TEST(AodvAgent, SecondSendUsesCachedRoute) {
  AodvRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  rig.node(0).send_data(2, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  const auto rreq_before =
      rig.audit(0)
          .packet_times(AuditPacketType::RouteRequest, FlowDirection::Sent)
          .size();
  const auto finds_before =
      rig.audit(0).route_event_times(RouteEventKind::Find).size();
  rig.node(0).send_data(2, 1, 1, 512, false);
  rig.sim.run_until(6.0);
  EXPECT_EQ(sink.packets_received(), 2u);
  EXPECT_EQ(rig.audit(0)
                .packet_times(AuditPacketType::RouteRequest,
                              FlowDirection::Sent)
                .size(),
            rreq_before);  // no second discovery
  EXPECT_EQ(rig.audit(0).route_event_times(RouteEventKind::Find).size(),
            finds_before + 1);  // logged as a cache find
}

TEST(AodvAgent, UnreachableDestinationDropsAfterRetries) {
  // Node 2 is far beyond range of everyone.
  AodvRig rig(2, 10000);
  rig.node(0).send_data(1, 1, 0, 512, false);
  rig.sim.run_until(30.0);
  EXPECT_EQ(rig.node(1).data_delivered(), 0u);
  // The buffered packet was eventually dropped and audited as such.
  EXPECT_GE(rig.audit(0)
                .packet_times(AuditPacketType::RouteAll, FlowDirection::Dropped)
                .size(),
            1u);
  EXPECT_GE(rig.aodv(0).stats().discoveries_failed, 1u);
}

TEST(AodvAgent, HelloBeaconsDiscoverNeighbors) {
  AodvRig rig(2, 100);
  rig.sim.run_until(5.0);
  // Each node should have noticed the other via HELLO.
  EXPECT_NE(rig.aodv(0).table().lookup(1, rig.sim.now()), nullptr);
  EXPECT_NE(rig.aodv(1).table().lookup(0, rig.sim.now()), nullptr);
  EXPECT_GT(rig.audit(0)
                .packet_times(AuditPacketType::Hello, FlowDirection::Received)
                .size(),
            2u);
}

TEST(AodvAgent, LinkBreakTriggersRerrAndRemoval) {
  AodvRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  rig.node(0).send_data(2, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);

  // Sever the 1-2 link and send again: node 1 must detect the failure,
  // remove the route and report RERR.
  rig.mobility.move(2, {10000, 10000});
  rig.node(0).send_data(2, 1, 1, 512, false);
  rig.sim.run_until(10.0);
  EXPECT_GE(rig.audit(1)
                .packet_times(AuditPacketType::RouteError, FlowDirection::Sent)
                .size(),
            1u);
  EXPECT_GE(
      rig.audit(1).route_event_times(RouteEventKind::Remove).size(),
      1u);
}

TEST(AodvAgent, RepairAfterBreakEventuallyRedelivers) {
  AodvRig rig(4, 200);
  CbrSink sink(rig.node(3), 1);
  rig.node(0).send_data(3, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);

  // Move node 1 out; a 0-2 hop is too long (400 m)... so instead move node 1
  // closer to 0 *and* keep chain: teleport node 1 to overlap node 2's
  // position, making 0-1 break but 0 now reaches node 2? 0 at x=0, range
  // 250: no. Realistic repair: break 2-3 but provide alternate 2'->3 via
  // node 1? Keep it simple: break the last hop and restore it.
  rig.mobility.move(3, {10000, 10000});
  rig.node(0).send_data(3, 1, 1, 512, false);
  rig.sim.run_until(8.0);
  const auto delivered_while_broken = sink.packets_received();
  EXPECT_EQ(delivered_while_broken, 1u);

  rig.mobility.move(3, {600, 0});  // back in the chain
  rig.node(0).send_data(3, 1, 2, 512, false);
  rig.sim.run_until(20.0);
  EXPECT_GE(sink.packets_received(), 2u);
}

TEST(AodvAgent, SilentNeighborTimesOut) {
  AodvRig rig(2, 100);
  rig.sim.run_until(5.0);
  ASSERT_NE(rig.aodv(0).table().lookup(1, rig.sim.now()), nullptr);
  // Node 1 disappears; after the allowed-hello-loss window its route (kept
  // alive only by beacons) must die at node 0.
  rig.mobility.move(1, {100000, 0});
  rig.sim.run_until(20.0);
  EXPECT_EQ(rig.aodv(0).table().lookup(1, rig.sim.now()), nullptr);
}

TEST(AodvAgent, RerrPropagatesUpstream) {
  // Chain 0-1-2-3; traffic 0->3; then 3 vanishes. Node 2 detects the break
  // on the next data packet and its RERR must reach node 1 (and node 0),
  // invalidating their routes to 3.
  AodvRig rig(4, 200);
  CbrSink sink(rig.node(3), 1);
  rig.node(0).send_data(3, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);
  ASSERT_NE(rig.aodv(1).table().lookup(3, rig.sim.now()), nullptr);

  rig.mobility.move(3, {100000, 0});
  rig.node(0).send_data(3, 1, 1, 512, false);
  rig.sim.run_until(8.0);
  EXPECT_GE(rig.audit(1)
                .packet_times(AuditPacketType::RouteError,
                              FlowDirection::Received)
                .size(),
            1u);
  EXPECT_EQ(rig.aodv(1).table().lookup(3, rig.sim.now()), nullptr);
}

TEST(AodvAgent, DataTtlExhaustionIsDropped) {
  // Poison a two-node loop by hand is hard through the public surface;
  // instead check that a packet with a tiny TTL entering a long chain dies
  // with a drop record instead of looping forever.
  AodvRig rig(6, 200);
  CbrSink sink(rig.node(5), 1);
  rig.node(0).send_data(5, 1, 0, 512, false);  // warm up the route
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);
  // Now inject a data packet with ttl=2 directly via the routing agent.
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.src = 0;
  pkt.dst = 5;
  pkt.flow_id = 1;
  pkt.seq = 99;
  pkt.ttl = 2;
  rig.aodv(0).send_data(std::move(pkt));
  rig.sim.run_until(10.0);
  EXPECT_EQ(sink.packets_received(), 1u);  // the low-TTL packet died en route
}

TEST(AodvAgent, BogusAdvertPoisonsNeighborsWithMaxSeqno) {
  AodvRig rig(3, 200);
  // Let HELLOs establish neighbor state first.
  rig.sim.run_until(3.0);
  // Node 1 (middle) advertises a bogus route for victim 0.
  rig.aodv(1).inject_bogus_route_advert(0);
  rig.sim.run_until(4.0);
  const AodvRouteEntry* poisoned =
      rig.aodv(2).table().lookup(0, rig.sim.now());
  ASSERT_NE(poisoned, nullptr);
  EXPECT_EQ(poisoned->next_hop, 1);
  EXPECT_EQ(poisoned->seqno, kMaxSeqNo);
  // A genuine discovery cannot displace the poisoned route (verified on a
  // copy of the update rule; the agent's table is read-only from outside).
  AodvRouteTable probe;
  probe.update(0, poisoned->next_hop, poisoned->hop_count, poisoned->seqno,
               true, rig.sim.now() + 1000, rig.sim.now());
  EXPECT_EQ(probe.update(0, 2, 1, 100, true, rig.sim.now() + 100,
                         rig.sim.now()),
            RouteUpdate::Rejected);
}

TEST(AodvAgent, MaliciousFilterDropsAndAudits) {
  AodvRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  rig.node(1).add_forward_filter(
      [](const Packet& pkt) { return pkt.kind == PacketKind::Data; });
  rig.node(0).send_data(2, 1, 0, 512, false);
  rig.sim.run_until(10.0);
  EXPECT_EQ(sink.packets_received(), 0u);
  EXPECT_GE(rig.aodv(1).stats().data_dropped_malicious, 1u);
  EXPECT_GE(rig.audit(1)
                .packet_times(AuditPacketType::RouteAll, FlowDirection::Dropped)
                .size(),
            1u);
}

// Property sweep: delivery works across chain lengths and spacings.
class AodvChainTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(AodvChainTest, ChainDelivery) {
  const auto [n, spacing] = GetParam();
  AodvRig rig(n, spacing);
  CbrSink sink(rig.node(static_cast<NodeId>(n - 1)), 1);
  rig.node(0).send_data(static_cast<NodeId>(n - 1), 1, 0, 512, false);
  rig.sim.run_until(10.0);
  EXPECT_EQ(sink.packets_received(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, AodvChainTest,
                         ::testing::Combine(::testing::Values(2u, 3u, 6u, 9u),
                                            ::testing::Values(100.0, 240.0)));

}  // namespace
}  // namespace xfa
