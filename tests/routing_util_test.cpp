// Unit tests: shared routing-agent utilities (send buffer, flood-id cache,
// routing stats printer).
#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>

#include "routing/route_events.h"
#include "sim/rng.h"

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

TEST(RoutingStats, PrinterIncludesCounters) {
  RoutingStats stats;
  stats.discoveries_started = 4;
  stats.data_forwarded = 99;
  stats.rerr_sent = 2;
  std::ostringstream os;
  os << stats;
  EXPECT_NE(os.str().find("discoveries=4"), std::string::npos);
  EXPECT_NE(os.str().find("fwd=99"), std::string::npos);
  EXPECT_NE(os.str().find("rerr=2"), std::string::npos);
}

}  // namespace
}  // namespace xfa
