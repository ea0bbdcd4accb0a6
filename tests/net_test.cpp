// Unit tests: packet model, wireless channel, node plumbing.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <vector>

#include "audit/audit.h"
#include "features/extract.h"
#include "features/schema.h"
#include "mobility/waypoint.h"
#include "net/channel.h"
#include "net/node.h"
#include "scenario/config.h"
#include "scenario/graph/builder.h"
#include "scenario/graph/registry.h"
#include "sim/simulator.h"

namespace xfa {
namespace {

/// A routing stub that records everything the node hands it.
class RecordingProtocol final : public RoutingProtocol {
 public:
  void send_data(Packet&& pkt) override { sent.push_back(pkt); }
  void receive(PacketPtr pkt, NodeId from) override {
    received.emplace_back(*pkt, from);
    if (on_receive) on_receive(*pkt);
  }
  void tap(const Packet& pkt, NodeId from, NodeId to) override {
    taps.push_back({pkt, from, to});
  }
  void link_failure(const Packet& pkt, NodeId to) override {
    failures.emplace_back(pkt, to);
  }
  double average_route_length() const override { return 0; }
  std::size_t route_count() const override { return 0; }
  const RoutingStats& stats() const override { return stats_; }
  const char* name() const override { return "stub"; }

  std::vector<Packet> sent;
  RoutingStats stats_;
  std::vector<std::pair<Packet, NodeId>> received;
  struct Tap {
    Packet pkt;
    NodeId from, to;
  };
  std::vector<Tap> taps;
  std::vector<std::pair<Packet, NodeId>> failures;
  /// Runs after each receive is recorded (re-entrancy tests).
  std::function<void(const Packet&)> on_receive;
};

ChannelConfig no_jitter() {
  ChannelConfig config;
  config.max_jitter_s = 0;
  return config;
}

/// Test rig: N nodes with recording protocols on a field small enough that
/// everyone is in radio range (or huge, so that nobody is).
struct Rig {
  Rig(std::size_t n, double field, ChannelConfig config = no_jitter(),
      std::uint64_t seed = 1)
      : sim(seed),
        mobility(n, make_mobility(field), Rng(seed)),
        channel(sim, mobility, config) {
    for (std::size_t i = 0; i < n; ++i) {
      nodes.push_back(
          std::make_unique<Node>(sim, channel, static_cast<NodeId>(i)));
      channel.register_node(*nodes.back());
      auto protocol = std::make_unique<RecordingProtocol>();
      protocols.push_back(protocol.get());
      nodes.back()->set_routing(std::move(protocol));
    }
  }
  static MobilityConfig make_mobility(double field) {
    MobilityConfig config;
    config.field_width = field;
    config.field_height = field;
    return config;
  }

  Simulator sim;
  RandomWaypointMobility mobility;
  Channel channel;
  std::vector<std::unique_ptr<Node>> nodes;
  std::vector<RecordingProtocol*> protocols;
};

TEST(PacketTest, DescribeIsHumanReadable) {
  Packet pkt;
  pkt.kind = PacketKind::RouteRequest;
  pkt.src = 3;
  pkt.dst = kBroadcast;
  pkt.uid = 9;
  pkt.ttl = 12;
  EXPECT_EQ(pkt.describe(), "RREQ 3->* uid=9 ttl=12");
}

TEST(PacketTest, KindNames) {
  EXPECT_STREQ(to_string(PacketKind::Data), "DATA");
  EXPECT_STREQ(to_string(PacketKind::Hello), "HELLO");
}

TEST(ChannelTest, BroadcastReachesAllNodesInSmallField) {
  Rig rig(4, 10.0);
  Packet pkt;
  pkt.kind = PacketKind::Hello;
  pkt.src = 0;
  pkt.dst = kBroadcast;
  rig.channel.transmit(0, pkt, kBroadcast);
  rig.sim.run();

  EXPECT_TRUE(rig.protocols[0]->received.empty());  // no self-delivery
  for (std::size_t i = 1; i < 4; ++i) {
    ASSERT_EQ(rig.protocols[i]->received.size(), 1u);
    EXPECT_EQ(rig.protocols[i]->received[0].second, 0);
  }
  EXPECT_EQ(rig.channel.stats().deliveries, 3u);
}

TEST(ChannelTest, OutOfRangeNodesGetNothing) {
  Rig rig(2, 100000.0, no_jitter(), /*seed=*/3);
  ASSERT_TRUE(rig.channel.neighbors(0).empty());  // sanity for this seed
  Packet pkt;
  pkt.src = 0;
  pkt.dst = kBroadcast;
  rig.channel.transmit(0, pkt, kBroadcast);
  rig.sim.run();
  EXPECT_TRUE(rig.protocols[1]->received.empty());
}

TEST(ChannelTest, NeighborsMatchesInRange) {
  Rig rig(5, 10.0);
  const auto neighbors = rig.channel.neighbors(0);
  EXPECT_EQ(neighbors.size(), 4u);
}

TEST(ChannelTest, UnicastTapsOtherNodes) {
  Rig rig(3, 10.0);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.src = 0;
  pkt.dst = 1;
  rig.channel.transmit(0, pkt, 1);
  rig.sim.run();
  EXPECT_EQ(rig.protocols[1]->received.size(), 1u);
  ASSERT_EQ(rig.protocols[2]->taps.size(), 1u);
  EXPECT_EQ(rig.protocols[2]->taps[0].to, 1);
}

TEST(ChannelTest, FailedUnicastTriggersLinkFailure) {
  Rig rig(2, 10.0);
  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.src = 0;
  pkt.dst = 2;
  rig.channel.transmit(0, pkt, 99);  // no such node in range
  rig.sim.run();
  ASSERT_EQ(rig.protocols[0]->failures.size(), 1u);
  EXPECT_EQ(rig.protocols[0]->failures[0].second, 99);
  EXPECT_EQ(rig.channel.stats().unicast_failures, 1u);
}

TEST(ChannelTest, TapsCanBeDisabled) {
  ChannelConfig config = no_jitter();
  config.promiscuous_taps = false;
  Rig rig(3, 10.0, config);
  Packet pkt;
  pkt.src = 0;
  pkt.dst = 1;
  rig.channel.transmit(0, pkt, 1);
  rig.sim.run();
  EXPECT_TRUE(rig.protocols[2]->taps.empty());
  EXPECT_EQ(rig.channel.stats().taps, 0u);
}

TEST(ChannelTest, LossRateDropsSomeDeliveries) {
  ChannelConfig config = no_jitter();
  config.loss_rate = 0.5;
  Rig rig(2, 10.0, config);
  for (int i = 0; i < 200; ++i) {
    Packet pkt;
    pkt.src = 0;
    pkt.dst = kBroadcast;
    rig.channel.transmit(0, pkt, kBroadcast);
  }
  rig.sim.run();
  const auto received = rig.protocols[1]->received.size();
  EXPECT_GT(received, 50u);
  EXPECT_LT(received, 150u);
  EXPECT_EQ(rig.channel.stats().random_losses, 200 - received);
}

TEST(ChannelTest, TransmissionDelayScalesWithSize) {
  Rig rig(2, 10.0);
  Packet small, large;
  small.src = large.src = 0;
  small.dst = large.dst = kBroadcast;
  small.size_bytes = 64;
  large.size_bytes = 6400;
  SimTime small_at = -1, large_at = -1;
  rig.channel.transmit(0, large, kBroadcast);
  rig.sim.run();
  large_at = rig.sim.now();
  Rig rig2(2, 10.0);
  rig2.channel.transmit(0, small, kBroadcast);
  rig2.sim.run();
  small_at = rig2.sim.now();
  EXPECT_GT(large_at, small_at);
  // 2 Mb/s: 64 B = 256 us.
  EXPECT_NEAR(small_at, 64 * 8 / 2e6, 1e-9);
}

TEST(ChannelTest, UidAssignedOnTransmit) {
  Rig rig(2, 10.0);
  Packet a, b;
  a.src = b.src = 0;
  a.dst = b.dst = kBroadcast;
  rig.channel.transmit(0, a, kBroadcast);
  rig.channel.transmit(0, b, kBroadcast);
  rig.sim.run();
  ASSERT_EQ(rig.protocols[1]->received.size(), 2u);
  EXPECT_NE(rig.protocols[1]->received[0].first.uid,
            rig.protocols[1]->received[1].first.uid);
  EXPECT_NE(rig.protocols[1]->received[0].first.uid, 0u);
}

TEST(ChannelTest, ZeroDelayEventFromFirstReceiverRunsAfterLastReceiver) {
  Rig rig(4, 10.0);
  std::vector<int> order;
  for (int i = 1; i < 4; ++i) {
    rig.protocols[static_cast<std::size_t>(i)]->on_receive =
        [&rig, &order, i](const Packet&) {
          order.push_back(i);
          if (i == 1) rig.sim.after(0, [&order] { order.push_back(-1); });
        };
  }
  Packet pkt;
  pkt.src = 0;
  pkt.dst = kBroadcast;
  rig.channel.transmit(0, pkt, kBroadcast);
  rig.sim.run();
  // Same-time events are FIFO: the follow-up is sequenced after every
  // arrival of the broadcast that was already in flight.
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, -1}));
}

TEST(ChannelTest, TransmitFromInsideDeliverIsSafe) {
  Rig rig(4, 10.0);
  // Each receiver of the HELLO rebroadcasts at once, so every relay
  // transmits while the HELLO's arrival walk is still in progress.
  for (std::size_t i = 1; i < 4; ++i) {
    rig.protocols[i]->on_receive = [&rig, i](const Packet& pkt) {
      if (pkt.kind != PacketKind::Hello) return;
      Packet relay;
      relay.kind = PacketKind::RouteRequest;
      relay.src = static_cast<NodeId>(i);
      relay.dst = kBroadcast;
      rig.channel.transmit(static_cast<NodeId>(i), relay, kBroadcast);
    };
  }
  Packet hello;
  hello.kind = PacketKind::Hello;
  hello.src = 0;
  hello.dst = kBroadcast;
  rig.channel.transmit(0, hello, kBroadcast);
  rig.sim.run();

  EXPECT_EQ(rig.channel.stats().transmissions, 4u);
  EXPECT_EQ(rig.channel.stats().deliveries, 12u);
  ASSERT_EQ(rig.protocols[0]->received.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k)
    EXPECT_EQ(rig.protocols[0]->received[k].second, static_cast<NodeId>(k + 1));
  for (std::size_t i = 1; i < 4; ++i) {
    const auto& received = rig.protocols[i]->received;
    ASSERT_EQ(received.size(), 3u) << "node " << i;
    EXPECT_EQ(received[0].first.kind, PacketKind::Hello);
    EXPECT_EQ(received[1].first.kind, PacketKind::RouteRequest);
    EXPECT_EQ(received[2].first.kind, PacketKind::RouteRequest);
  }
}

/// Fault hooks that never fire: nothing is down, lost, corrupted or
/// duplicated, and nothing is delayed. Installing it sends every arrival
/// down the per-receiver fault path with fault-free timing and RNG draws.
class TransparentFaults final : public FaultModel {
 public:
  bool node_down(NodeId) const override { return false; }
  bool link_down(NodeId, NodeId) const override { return false; }
  bool loses_delivery() override { return false; }
  bool corrupts_delivery() override { return false; }
  bool duplicates_delivery() override { return false; }
  SimTime extra_delay() override { return 0; }
};

struct WorldRun {
  RawTrace trace;
  ChannelStats channel;
  std::vector<RoutingStats> routing;  // per node
  std::uint64_t events = 0;
};

/// The scenario runner's simulate-and-extract, with `faults` installed on
/// the channel before the world is built.
WorldRun run_world(const ScenarioConfig& config, FaultModel* faults) {
  Simulator sim(config.seed);
  RandomWaypointMobility mobility(config.node_count, config.mobility,
                                  Rng(config.mobility_seed));
  ChannelConfig channel_config = config.channel;
  channel_config.promiscuous_taps = element_for(config.routing).promiscuous;
  channel_config.max_node_speed = config.mobility.max_speed;
  Channel channel(sim, mobility, channel_config);
  channel.set_fault_model(faults);
  const auto world = build_scenario(config, sim, channel);

  Node& monitor = world->monitor(config);
  SampledNodeState state;
  const auto samples = static_cast<std::size_t>(
      config.duration / config.sample_interval + 1e-9);
  for (std::size_t i = 0; i < samples; ++i) {
    const SimTime t = config.sample_interval * static_cast<double>(i + 1);
    sim.at(t, [&state, &mobility, &monitor, &config, t] {
      state.velocity.push_back(mobility.speed(config.monitor_node, t));
      state.average_route_len.push_back(
          monitor.routing().average_route_length());
    });
  }
  sim.run_until(config.duration);

  const FeatureSchema schema = FeatureSchema::standard();
  WorldRun run;
  run.trace = FeatureExtractor(schema, config.sample_interval)
                  .extract(world->monitor_audit, state, config.duration);
  run.channel = channel.stats();
  for (const auto& node : world->nodes)
    run.routing.push_back(node->routing().stats());
  run.events = sim.scheduler().dispatched();
  return run;
}

void expect_batched_fan_out_matches_per_receiver(RoutingKind routing,
                                                 TransportKind transport) {
  ScenarioConfig config;
  config.routing = routing;
  config.transport = transport;
  config.duration = 600;
  config.traffic.max_connections = 20;
  TransparentFaults transparent;
  const WorldRun batched = run_world(config, nullptr);
  const WorldRun per_receiver = run_world(config, &transparent);

  ASSERT_FALSE(batched.trace.rows.empty());
  EXPECT_EQ(batched.trace.times, per_receiver.trace.times);
  EXPECT_EQ(batched.trace.rows, per_receiver.trace.rows);
  EXPECT_EQ(batched.channel, per_receiver.channel);
  EXPECT_EQ(batched.routing, per_receiver.routing);
  // Same arrivals, fewer dispatches: the batched path really ran.
  EXPECT_GT(batched.channel.deliveries, 0u);
  if (element_for(routing).promiscuous) {
    EXPECT_GT(batched.channel.taps, 0u);
  }
  EXPECT_LT(batched.events, per_receiver.events);
}

TEST(FanOutEquivalence, AodvUdpWorldMatchesPerReceiverPath) {
  expect_batched_fan_out_matches_per_receiver(RoutingKind::Aodv,
                                              TransportKind::Udp);
}

TEST(FanOutEquivalence, DsrTcpWorldMatchesPerReceiverPath) {
  expect_batched_fan_out_matches_per_receiver(RoutingKind::Dsr,
                                              TransportKind::Tcp);
}

TEST(NodeTest, SendDataLogsAuditAndRoutesToProtocol) {
  Rig rig(1, 10.0);
  Node& node = *rig.nodes[0];
  AuditLog log;
  node.attach_audit(&log);
  node.send_data(5, 1, 0, 512, false);
  ASSERT_EQ(rig.protocols[0]->sent.size(), 1u);
  EXPECT_EQ(rig.protocols[0]->sent[0].dst, 5);
  EXPECT_EQ(log.packet_times(AuditPacketType::Data, FlowDirection::Sent)
                .size(),
            1u);
  EXPECT_EQ(node.data_originated(), 1u);
}

TEST(NodeTest, DeliverToTransportInvokesSink) {
  Rig rig(1, 10.0);
  Node& node = *rig.nodes[0];
  AuditLog log;
  node.attach_audit(&log);

  struct CountingSink final : TransportSink {
    void deliver(const Packet&) override { ++count; }
    int count = 0;
  } sink;
  node.register_sink(7, &sink);

  Packet pkt;
  pkt.kind = PacketKind::Data;
  pkt.flow_id = 7;
  pkt.dst = 0;
  node.deliver_to_transport(pkt);
  EXPECT_EQ(sink.count, 1);
  EXPECT_EQ(node.data_delivered(), 1u);
  EXPECT_EQ(log.packet_times(AuditPacketType::Data, FlowDirection::Received)
                .size(),
            1u);
}

TEST(NodeTest, ForwardFiltersCompose) {
  Rig rig(1, 10.0);
  Node& node = *rig.nodes[0];
  node.add_forward_filter([](const Packet& pkt) { return pkt.dst == 3; });
  node.add_forward_filter([](const Packet& pkt) { return pkt.flow_id == 9; });

  Packet to3;
  to3.dst = 3;
  Packet flow9;
  flow9.dst = 5;
  flow9.flow_id = 9;
  Packet clean;
  clean.dst = 5;
  EXPECT_TRUE(node.should_maliciously_drop(to3));
  EXPECT_TRUE(node.should_maliciously_drop(flow9));
  EXPECT_FALSE(node.should_maliciously_drop(clean));
}

TEST(NodeTest, AuditDisabledByDefault) {
  Rig rig(1, 10.0);
  Node& node = *rig.nodes[0];
  EXPECT_FALSE(node.audit_enabled());
  // With no sink attached, observations are dropped, not stored.
  node.log_packet(AuditPacketType::Data, FlowDirection::Sent);
  node.log_route_event(RouteEventKind::Add);
  AuditLog log;
  node.attach_audit(&log);
  EXPECT_TRUE(node.audit_enabled());
  EXPECT_EQ(log.total_packet_records(), 0u);
  EXPECT_EQ(log.total_route_events(), 0u);
}

}  // namespace
}  // namespace xfa
