// End-to-end property tests: paper-level invariants on small fixed
// topologies and reduced scenarios.
#include <gtest/gtest.h>

#include <memory>

#include "attacks/blackhole.h"
#include "attacks/storm.h"
#include "audit/audit.h"
#include "mobility/static.h"
#include "net/channel.h"
#include "net/node.h"
#include "routing/aodv/aodv.h"
#include "scenario/pipeline.h"
#include "sim/simulator.h"
#include "transport/cbr.h"

namespace xfa {
namespace {

struct Rig {
  Rig(std::size_t n, double spacing, std::uint64_t seed = 51)
      : sim(seed), mobility(StaticPositions::line(n, spacing)) {
    ChannelConfig config;
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

TEST(PaperProperties, BlackholePoisonHoldsWhileAdvertised) {
  // The paper: "routes with maximum sequence number are always considered
  // the freshest". While the attacker keeps advertising, the poisoned route
  // stays installed and no valid genuine route can displace it. (Our AODV
  // lets an *expired* poisoned entry be replaced — RFC semantics — so full
  // recovery is possible once adverts stop; see DESIGN.md §7.9. The attack
  // scripts re-advertise every session, which preserves the paper's
  // oscillating non-recovery during the attacked period.)
  Rig rig(3, 200);
  BlackholeAttack attack(rig.node(1),
                         IntrusionSchedule::sessions({{5, 30}}));
  attack.start();
  rig.sim.run_until(30.0);  // mid-session
  ASSERT_GT(attack.adverts_sent(), 0u);
  const AodvRouteEntry* poisoned =
      rig.aodv(2).table().lookup(0, rig.sim.now());
  ASSERT_NE(poisoned, nullptr);
  EXPECT_EQ(poisoned->seqno, kMaxSeqNo);
  EXPECT_EQ(poisoned->next_hop, 1);
  // Entry memory outlives the session: the max seqno is never decremented.
  rig.sim.run_until(120.0);
  const AodvRouteEntry* later = rig.aodv(2).table().lookup_any(0);
  ASSERT_NE(later, nullptr);
  EXPECT_EQ(later->seqno, kMaxSeqNo);
}

TEST(PaperProperties, StormInflatesMonitorRreqObservations) {
  Rig clean(4, 200, 77);
  Rig stormy(4, 200, 77);
  UpdateStormConfig config;
  config.discoveries_per_second = 5.0;
  UpdateStormAttack attack(stormy.node(2),
                           IntrusionSchedule::sessions({{5, 90}}), config);
  attack.start();
  clean.sim.run_until(100.0);
  stormy.sim.run_until(100.0);
  const auto clean_rreq =
      clean.audit(0)
          .packet_times(AuditPacketType::RouteRequest,
                        FlowDirection::Received)
          .size();
  const auto stormy_rreq =
      stormy.audit(0)
          .packet_times(AuditPacketType::RouteRequest,
                        FlowDirection::Received)
          .size();
  EXPECT_GT(stormy_rreq, clean_rreq + 100)
      << "the monitor must observe the meaningless-discovery flood";
}

TEST(PaperProperties, ScoresAlwaysInUnitIntervalOverWholeTraces) {
  ExperimentOptions options;
  options.duration = 400;
  options.normal_eval_traces = 1;
  options.abnormal_traces = 1;
  options.attacks = mixed_attacks(50);
  options.attacks[0].schedule.start = 100;
  options.attacks[1].schedule.start = 200;
  options.base_seed = 9900;
  const ExperimentData data = gather_experiment_checked(
      RoutingKind::Aodv, TransportKind::Udp, options).value();
  DetectorOptions detector_options;
  detector_options.threads = 1;
  for (const NamedFactory& classifier : paper_classifiers()) {
    const Detector detector =
        train_detector_checked(data.train_normal, classifier.factory,
                               detector_options).value();
    for (const RawTrace* trace :
         {&data.normal_eval[0], &data.abnormal[0]}) {
      for (const EventScore& s : detector.score_trace(*trace)) {
        EXPECT_GE(s.avg_probability, 0.0) << classifier.name;
        EXPECT_LE(s.avg_probability, 1.0) << classifier.name;
        EXPECT_GE(s.avg_match_count, 0.0) << classifier.name;
        EXPECT_LE(s.avg_match_count, 1.0) << classifier.name;
      }
    }
  }
}

TEST(PaperProperties, IdenticalSeedsGiveIdenticalChannelStats) {
  Rig a(5, 180, 123);
  Rig b(5, 180, 123);
  CbrSink sink_a(a.node(4), 1);
  CbrSink sink_b(b.node(4), 1);
  CbrSource source_a(a.node(0), 4, 1, 1.0, 512, 0.5, 60.0);
  CbrSource source_b(b.node(0), 4, 1, 1.0, 512, 0.5, 60.0);
  a.sim.run_until(80.0);
  b.sim.run_until(80.0);
  EXPECT_EQ(a.channel->stats().transmissions, b.channel->stats().transmissions);
  EXPECT_EQ(a.channel->stats().deliveries, b.channel->stats().deliveries);
  EXPECT_EQ(sink_a.packets_received(), sink_b.packets_received());
}

TEST(PaperProperties, AlgorithmsAgreeOnExtremeEvents) {
  // An event matching every sub-model perfectly has both scores high; an
  // event matching none has both low — the two algorithms only diverge in
  // the middle (that divergence is Figure 2's subject).
  Rng rng(5);
  Dataset data;
  data.cardinality = {4, 4, 4};
  for (int i = 0; i < 300; ++i) {
    const int v = static_cast<int>(rng.uniform_int(4));
    data.rows.push_back({v, v, v});
  }
  CrossFeatureModel model;
  model.train(data, {0, 1, 2}, make_c45_factory(), 1);
  const EventScore all_match = model.score({2, 2, 2});
  const EventScore none_match = model.score({0, 1, 2});
  EXPECT_GT(all_match.avg_match_count, 0.99);
  EXPECT_GT(all_match.avg_probability, 0.8);
  EXPECT_LT(none_match.avg_match_count, 0.34);
  EXPECT_LT(none_match.avg_probability, all_match.avg_probability);
}

}  // namespace
}  // namespace xfa
