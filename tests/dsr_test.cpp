// Unit tests: DSR route cache and agent behaviour on fixed topologies.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "audit/audit.h"
#include "mobility/static.h"
#include "net/channel.h"
#include "net/node.h"
#include "routing/dsr/dsr.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "transport/cbr.h"

namespace xfa {
namespace {

// ---------------------------------------------------------------------------
// Route cache.
// ---------------------------------------------------------------------------

using Hops = std::vector<NodeId>;

TEST(DsrRouteCache, AddAndBestPath) {
  DsrRouteCache cache;
  EXPECT_TRUE(cache.add_path(Hops{1, 2, 5}, 0, 0.0));
  EXPECT_TRUE(cache.add_path(Hops{3, 5}, 0, 0.0));
  const DsrCachePath* best = cache.best_path(5, 1.0);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->hops, (std::vector<NodeId>{3, 5}));  // shortest wins
}

TEST(DsrRouteCache, FreshnessDominatesLength) {
  DsrRouteCache cache;
  cache.add_path(Hops{3, 5}, 0, 0.0);
  cache.add_path(Hops{1, 2, 4, 5}, kMaxSeqNo, 0.0);  // forged fresh, longer
  EXPECT_EQ(cache.best_path(5, 1.0)->freshness, kMaxSeqNo);
}

TEST(DsrRouteCache, DuplicateRefreshesNotDuplicates) {
  DsrRouteCache cache;
  EXPECT_TRUE(cache.add_path(Hops{1, 5}, 0, 0.0));
  EXPECT_FALSE(cache.add_path(Hops{1, 5}, 0, 1.0));  // same path: refresh only
  EXPECT_EQ(cache.path_count(2.0), 1u);
}

TEST(DsrRouteCache, CapacityEvictsWorst) {
  DsrRouteCache cache(/*max_paths_per_dst=*/2);
  cache.add_path(Hops{1, 5}, 5, 0.0);
  cache.add_path(Hops{2, 5}, 9, 0.0);
  cache.add_path(Hops{3, 4, 5}, 7, 0.0);  // evicts freshness-5 path
  EXPECT_EQ(cache.path_count(1.0), 2u);
  EXPECT_EQ(cache.best_path(5, 1.0)->freshness, 9u);
}

TEST(DsrRouteCache, RemoveLinkDropsAffectedPaths) {
  DsrRouteCache cache;
  cache.add_path(Hops{1, 2, 5}, 0, 0.0);  // owner->1->2->5 uses link 1-2
  cache.add_path(Hops{3, 5}, 0, 0.0);
  EXPECT_EQ(cache.remove_link(1, 2, /*owner=*/0), 1u);
  EXPECT_EQ(cache.best_path(5, 1.0)->hops, (std::vector<NodeId>{3, 5}));
}

TEST(DsrRouteCache, RemoveFirstHopLink) {
  DsrRouteCache cache;
  cache.add_path(Hops{1, 2, 5}, 0, 0.0);
  // The owner-to-first-hop link is implicit: owner=0, link 0-1.
  EXPECT_EQ(cache.remove_link(0, 1, /*owner=*/0), 1u);
  EXPECT_EQ(cache.best_path(5, 1.0), nullptr);
}

TEST(DsrRouteCache, ExpiryPurge) {
  DsrRouteCache cache(3, /*path_lifetime=*/10.0);
  cache.add_path(Hops{1, 5}, 0, 0.0);
  EXPECT_EQ(cache.best_path(5, 20.0), nullptr);
  EXPECT_EQ(cache.purge_expired(20.0), 1u);
}

TEST(DsrRouteCache, AveragePathLength) {
  DsrRouteCache cache;
  cache.add_path(Hops{1, 5}, 0, 0.0);        // 2 hops
  cache.add_path(Hops{1, 2, 3, 6}, 0, 0.0);  // 4 hops
  EXPECT_DOUBLE_EQ(cache.average_path_length(1.0), 3.0);
}

TEST(DsrRouteCache, EqualPathsKeepEarliestSlotAfterRefresh) {
  DsrRouteCache cache;
  EXPECT_TRUE(cache.add_path(Hops{1, 5}, 0, 0.0));
  EXPECT_TRUE(cache.add_path(Hops{2, 5}, 0, 1.0));
  // Refreshing the later path makes it the most recently learned, but it
  // keeps its slot, and the earliest slot wins the tie.
  EXPECT_FALSE(cache.add_path(Hops{2, 5}, 0, 2.0));
  const DsrCachePath* best = cache.best_path(5, 3.0);
  ASSERT_NE(best, nullptr);
  EXPECT_EQ(best->hops, (Hops{1, 5}));
  EXPECT_EQ(best->learned_at, 0.0);
  // A removed path that is learned again goes behind the survivors.
  EXPECT_EQ(cache.remove_link(0, 1, /*owner=*/0), 1u);
  EXPECT_TRUE(cache.add_path(Hops{1, 5}, 0, 4.0));
  EXPECT_EQ(cache.best_path(5, 5.0)->hops, (Hops{2, 5}));
}

// The cache's semantics written the plain way: one vector of paths per
// destination, each path its own vector, every operation a linear scan.
class ReferenceCache {
 public:
  ReferenceCache(std::size_t max_paths, SimTime lifetime)
      : max_paths_(max_paths), lifetime_(lifetime) {}

  bool add_path(const Hops& hops, SeqNo freshness, SimTime now) {
    if (hops.empty()) return false;
    auto& paths = by_dst_[hops.back()];
    for (DsrCachePath& path : paths) {
      if (path.hops == hops) {
        path.learned_at = now;
        path.freshness = std::max(path.freshness, freshness);
        return false;
      }
    }
    if (paths.size() < max_paths_) {
      paths.push_back({hops, freshness, now});
      return true;
    }
    const auto worst = std::min_element(
        paths.begin(), paths.end(),
        [](const DsrCachePath& a, const DsrCachePath& b) {
          if (a.freshness != b.freshness) return a.freshness < b.freshness;
          if (a.hops.size() != b.hops.size())
            return a.hops.size() > b.hops.size();
          return a.learned_at < b.learned_at;
        });
    *worst = {hops, freshness, now};
    return true;
  }

  const DsrCachePath* best_path(NodeId dst, SimTime now) const {
    const auto it = by_dst_.find(dst);
    if (it == by_dst_.end()) return nullptr;
    const DsrCachePath* best = nullptr;
    for (const DsrCachePath& path : it->second) {
      if (expired(path, now)) continue;
      if (best == nullptr || path.freshness > best->freshness ||
          (path.freshness == best->freshness &&
           path.hops.size() < best->hops.size())) {
        best = &path;
      }
    }
    return best;
  }

  std::size_t remove_link(NodeId from, NodeId to, NodeId owner) {
    return remove_if([&](const DsrCachePath& path) {
      NodeId prev = owner;
      for (const NodeId hop : path.hops) {
        if (prev == from && hop == to) return true;
        prev = hop;
      }
      return false;
    });
  }

  std::size_t purge_expired(SimTime now) {
    return remove_if(
        [&](const DsrCachePath& path) { return expired(path, now); });
  }

  std::size_t path_count(SimTime now) const {
    std::size_t count = 0;
    for (const auto& [dst, paths] : by_dst_)
      for (const DsrCachePath& path : paths) count += !expired(path, now);
    return count;
  }

  double average_path_length(SimTime now) const {
    std::size_t count = 0;
    double total = 0;
    for (const auto& [dst, paths] : by_dst_) {
      for (const DsrCachePath& path : paths) {
        if (expired(path, now)) continue;
        ++count;
        total += static_cast<double>(path.hops.size());
      }
    }
    return count == 0 ? 0.0 : total / static_cast<double>(count);
  }

  /// Some stored path (possibly expired), or nullptr when empty.
  const DsrCachePath* any_path(Rng& rng) const {
    std::vector<const DsrCachePath*> all;
    for (const auto& [dst, paths] : by_dst_)
      for (const DsrCachePath& path : paths) all.push_back(&path);
    return all.empty() ? nullptr : all[rng.uniform_int(all.size())];
  }

 private:
  bool expired(const DsrCachePath& path, SimTime now) const {
    return path.learned_at + lifetime_ < now;
  }
  template <typename Pred>
  std::size_t remove_if(Pred pred) {
    std::size_t removed = 0;
    for (auto& [dst, paths] : by_dst_)
      removed += static_cast<std::size_t>(std::erase_if(paths, pred));
    return removed;
  }

  std::size_t max_paths_;
  SimTime lifetime_;
  std::map<NodeId, std::vector<DsrCachePath>> by_dst_;
};

TEST(DsrRouteCache, MatchesReferenceModel) {
  constexpr NodeId kOwner = 0;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    Rng rng(seed);
    const std::size_t max_paths = 1 + rng.uniform_int(4);
    const SimTime lifetime = rng.uniform(5.0, 30.0);
    DsrRouteCache cache(max_paths, lifetime);
    ReferenceCache model(max_paths, lifetime);
    const auto node = [&] { return static_cast<NodeId>(rng.uniform_int(12)); };
    SimTime now = 0;
    std::size_t stored = 0, refreshed = 0, unlinked = 0, purged = 0;
    for (int op = 0; op < 5000; ++op) {
      SCOPED_TRACE(op);
      // Half the operations share an instant, as one overheard route's
      // sub-paths do, so learned_at ties. Now and then the cache idles for
      // about a lifetime, so that paths expire mid-run.
      if (rng.chance(0.01)) {
        now += lifetime * rng.uniform(0.5, 1.5);
      } else if (rng.chance(0.5)) {
        now += 0.05 * static_cast<double>(rng.uniform_int(4));
      }
      const std::uint64_t kind = rng.uniform_int(20);
      if (kind < 10) {
        // Half of the adds re-learn a stored path (a duplicate refresh).
        const DsrCachePath* known = model.any_path(rng);
        Hops hops;
        if (known != nullptr && rng.chance(0.5)) {
          hops = known->hops;
        } else {
          hops.resize(1 + rng.uniform_int(10));
          for (NodeId& hop : hops) hop = node();
        }
        const SeqNo freshness =
            rng.chance(0.05) ? kMaxSeqNo
                             : static_cast<SeqNo>(rng.uniform_int(3));
        const bool added = model.add_path(hops, freshness, now);
        ASSERT_EQ(cache.add_path(hops, freshness, now), added);
        ++(added ? stored : refreshed);
      } else if (kind < 12) {
        // Mostly a link some stored path uses, the owner's first hop
        // included; otherwise any pair.
        NodeId from = node();
        NodeId to = node();
        if (const DsrCachePath* known = model.any_path(rng);
            known != nullptr && rng.chance(0.8)) {
          const std::size_t at = rng.uniform_int(known->hops.size());
          from = at == 0 ? kOwner : known->hops[at - 1];
          to = known->hops[at];
        }
        const std::size_t removed = model.remove_link(from, to, kOwner);
        ASSERT_EQ(cache.remove_link(from, to, kOwner), removed);
        unlinked += removed;
      } else if (kind < 15) {
        const std::size_t removed = model.purge_expired(now);
        ASSERT_EQ(cache.purge_expired(now), removed);
        purged += removed;
      } else {
        ASSERT_EQ(cache.path_count(now), model.path_count(now));
        ASSERT_EQ(cache.average_path_length(now),
                  model.average_path_length(now));
      }
      const NodeId dst = node();
      const DsrCachePath* got = cache.best_path(dst, now);
      const DsrCachePath* want = model.best_path(dst, now);
      ASSERT_EQ(got == nullptr, want == nullptr) << "dst " << dst;
      if (want != nullptr) {
        ASSERT_EQ(got->hops, want->hops);
        ASSERT_EQ(got->freshness, want->freshness);
        ASSERT_EQ(got->learned_at, want->learned_at);
      }
    }
    // The workload reaches every way a path enters or leaves the cache.
    EXPECT_GT(stored, 0u);
    EXPECT_GT(refreshed, 0u);
    EXPECT_GT(unlinked, 0u);
    EXPECT_GT(purged, 0u);
  }
}

// ---------------------------------------------------------------------------
// Agent on fixed line topologies.
// ---------------------------------------------------------------------------

struct DsrRig {
  DsrRig(std::size_t n, double spacing, double range = 250)
      : sim(11), mobility(StaticPositions::line(n, spacing)) {
    ChannelConfig config;
    config.range_m = range;
    config.max_jitter_s = 0.0005;
    config.promiscuous_taps = true;  // DSR eavesdrops
    channel = std::make_unique<Channel>(sim, mobility, config);
    for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
      nodes.push_back(std::make_unique<Node>(sim, *channel, i));
      channel->register_node(*nodes.back());
      audits.push_back(std::make_unique<AuditLog>());
      nodes.back()->attach_audit(audits.back().get());
      nodes.back()->set_routing(std::make_unique<Dsr>(*nodes.back()));
      nodes.back()->routing().start();
    }
  }

  Dsr& dsr(NodeId id) {
    return static_cast<Dsr&>(nodes[static_cast<std::size_t>(id)]->routing());
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

TEST(DsrAgent, DeliversOverMultipleHops) {
  DsrRig rig(5, 200);
  CbrSink sink(rig.node(4), 1);
  rig.node(0).send_data(4, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  EXPECT_EQ(sink.packets_received(), 1u);
  const DsrCachePath* path = rig.dsr(0).cache().best_path(4, rig.sim.now());
  ASSERT_NE(path, nullptr);
  EXPECT_EQ(path->hops, (std::vector<NodeId>{1, 2, 3, 4}));
}

TEST(DsrAgent, BuffersDuringDiscoveryAndFlushes) {
  DsrRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  for (std::uint32_t s = 0; s < 5; ++s)
    rig.node(0).send_data(2, 1, s, 512, false);
  rig.sim.run_until(5.0);
  EXPECT_EQ(sink.packets_received(), 5u);
}

TEST(DsrAgent, SecondSendIsCacheFind) {
  DsrRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  rig.node(0).send_data(2, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  const auto finds_before =
      rig.audit(0).route_event_times(RouteEventKind::Find).size();
  rig.node(0).send_data(2, 1, 1, 512, false);
  rig.sim.run_until(6.0);
  EXPECT_EQ(sink.packets_received(), 2u);
  EXPECT_EQ(rig.audit(0).route_event_times(RouteEventKind::Find).size(),
            finds_before + 1);
}

TEST(DsrAgent, PromiscuousNoticeLearnsRoutesFromOverhearing) {
  DsrRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  rig.node(0).send_data(2, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);
  // Node 0 and node 2 are out of each other's range, but node 0's unicasts
  // to node 1 were overheard... the interesting overhearer is node 2's side:
  // every node that heard traffic should have learned something.
  EXPECT_GT(rig.audit(1).route_event_times(RouteEventKind::Notice)
                .size(),
            0u);
}

TEST(DsrAgent, IntermediateCacheReply) {
  DsrRig rig(4, 200);
  CbrSink sink2(rig.node(2), 1);
  CbrSink sink3(rig.node(3), 2);
  // First, 1->3 traffic teaches node 1 a route to 3.
  rig.node(1).send_data(3, 2, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink3.packets_received(), 1u);
  ASSERT_NE(rig.dsr(1).cache().best_path(3, rig.sim.now()), nullptr);

  // Now node 0 discovers 3: node 1 can answer from cache.
  const auto finds_before =
      rig.audit(1).route_event_times(RouteEventKind::Find).size();
  CbrSink sink3b(rig.node(3), 3);
  rig.node(0).send_data(3, 3, 0, 512, false);
  rig.sim.run_until(10.0);
  EXPECT_EQ(sink3b.packets_received(), 1u);
  EXPECT_GE(rig.audit(1).route_event_times(RouteEventKind::Find).size(),
            finds_before);
}

TEST(DsrAgent, LinkBreakSalvageOrRerr) {
  DsrRig rig(4, 200);
  CbrSink sink(rig.node(3), 1);
  rig.node(0).send_data(3, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);

  rig.mobility.move(3, {10000, 10000});
  rig.node(0).send_data(3, 1, 1, 512, false);
  rig.sim.run_until(10.0);
  // Node 2 (the failure point) reported the broken link.
  EXPECT_GE(rig.audit(2)
                .packet_times(AuditPacketType::RouteError, FlowDirection::Sent)
                .size(),
            1u);
  EXPECT_GE(
      rig.audit(2).route_event_times(RouteEventKind::Remove).size(),
      1u);
}

TEST(DsrAgent, UnreachableDestinationDropsAfterRetries) {
  DsrRig rig(2, 10000);
  rig.node(0).send_data(1, 1, 0, 512, false);
  rig.sim.run_until(30.0);
  EXPECT_EQ(rig.node(1).data_delivered(), 0u);
  EXPECT_GE(rig.dsr(0).stats().discoveries_failed, 1u);
}

TEST(DsrAgent, RerrReachesSourceAndCleansItsCache) {
  DsrRig rig(4, 200);
  CbrSink sink(rig.node(3), 1);
  rig.node(0).send_data(3, 1, 0, 512, false);
  rig.sim.run_until(5.0);
  ASSERT_EQ(sink.packets_received(), 1u);
  ASSERT_NE(rig.dsr(0).cache().best_path(3, rig.sim.now()), nullptr);

  rig.mobility.move(3, {100000, 0});
  rig.node(0).send_data(3, 1, 1, 512, false);
  rig.sim.run_until(10.0);
  // The source heard the ROUTE ERROR (relayed through node 1).
  EXPECT_GE(rig.audit(0)
                .packet_times(AuditPacketType::RouteError,
                              FlowDirection::Received)
                .size(),
            1u);
  // Any surviving cached path to 3 cannot use the broken 2-3 link.
  const DsrCachePath* path = rig.dsr(0).cache().best_path(3, rig.sim.now());
  if (path != nullptr) {
    NodeId prev = 0;
    for (const NodeId hop : path->hops) {
      EXPECT_FALSE(prev == 2 && hop == 3);
      prev = hop;
    }
  }
}

TEST(DsrAgent, SalvageUsesAlternatePath) {
  // Diamond: 0 reaches 3 via 1 (0-1-3) or via 2 (0-2-3). After 1 dies,
  // node 0 must repair onto the 0-2-3 path.
  DsrRig rig(4, 10000);  // spread out, then place by hand
  rig.mobility.move(0, {0, 0});
  rig.mobility.move(1, {200, 100});
  rig.mobility.move(2, {200, -100});
  rig.mobility.move(3, {400, 0});
  CbrSink sink(rig.node(3), 1);
  CbrSource source(rig.node(0), 3, 1, 1.0, 512, 0.5, 300.0);
  rig.sim.run_until(20.0);
  const auto before = sink.packets_received();
  ASSERT_GT(before, 10u);

  rig.mobility.move(1, {100000, 0});
  rig.sim.run_until(60.0);
  EXPECT_GT(sink.packets_received(), before + 20)
      << "traffic must keep flowing over the alternate branch";
}

TEST(DsrAgent, BogusAdvertPoisonsOverhearers) {
  DsrRig rig(3, 200);
  rig.sim.run_until(1.0);
  // Node 1 forges "victim 0 is one hop behind me".
  rig.dsr(1).inject_bogus_route_advert(0);
  rig.sim.run_until(2.0);
  const DsrCachePath* poisoned = rig.dsr(2).cache().best_path(0, rig.sim.now());
  ASSERT_NE(poisoned, nullptr);
  EXPECT_EQ(poisoned->freshness, kMaxSeqNo);
  EXPECT_EQ(poisoned->hops.front(), 1);  // via the attacker
}

TEST(DsrAgent, MaliciousFilterDropsAndAudits) {
  DsrRig rig(3, 200);
  CbrSink sink(rig.node(2), 1);
  rig.node(1).add_forward_filter(
      [](const Packet& pkt) { return pkt.dst == 2; });
  rig.node(0).send_data(2, 1, 0, 512, false);
  rig.sim.run_until(10.0);
  EXPECT_EQ(sink.packets_received(), 0u);
  EXPECT_GE(rig.dsr(1).stats().data_dropped_malicious, 1u);
}

// Property sweep: delivery works across chain lengths and spacings.
class DsrChainTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(DsrChainTest, ChainDelivery) {
  const auto [n, spacing] = GetParam();
  DsrRig rig(n, spacing);
  CbrSink sink(rig.node(static_cast<NodeId>(n - 1)), 1);
  rig.node(0).send_data(static_cast<NodeId>(n - 1), 1, 0, 512, false);
  rig.sim.run_until(10.0);
  EXPECT_EQ(sink.packets_received(), 1u);
}

INSTANTIATE_TEST_SUITE_P(Sweep, DsrChainTest,
                         ::testing::Combine(::testing::Values(2u, 3u, 6u, 9u),
                                            ::testing::Values(100.0, 240.0)));

}  // namespace
}  // namespace xfa
