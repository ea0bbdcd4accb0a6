// Shared helpers for routing agents: per-agent diagnostic counters and the
// common send-buffer used while route discovery is in flight.
#pragma once

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "sim/types.h"

namespace xfa {

// RoutingStats itself lives in net/node.h (part of the RoutingProtocol
// interface); the stream insertion stays here with the other routing
// diagnostics.
std::ostream& operator<<(std::ostream& os, const RoutingStats& stats);

/// Packets buffered at the source while a route is being discovered.
/// Bounded per destination; overflow drops the oldest packet.
class SendBuffer {
 public:
  explicit SendBuffer(std::size_t max_per_dst = 64)
      : max_per_dst_(max_per_dst) {}

  /// Buffers a packet; returns false (and drops the oldest) on overflow.
  bool push(Packet&& pkt);

  /// Removes and returns every packet waiting for `dst`.
  std::vector<Packet> take(NodeId dst);

  bool has_packets_for(NodeId dst) const;
  std::size_t size_for(NodeId dst) const;

 private:
  std::size_t max_per_dst_;
  std::unordered_map<NodeId, std::deque<Packet>> by_dst_;
};

/// Duplicate-flood suppression: remembers (origin, id) pairs with expiry.
/// Expired pairs are erased whenever the map reaches a watermark that
/// doubles with the live count, so the map stays within about twice the
/// pairs heard in the last `ttl` seconds. An expired pair already answers
/// as unseen and nothing iterates the map, so erasing it changes no answer.
class FloodIdCache {
 public:
  explicit FloodIdCache(SimTime ttl = 30.0) : ttl_(ttl) {}

  /// Returns true if this (origin, id) was already seen (and refreshes it).
  /// `now` must be non-decreasing across calls.
  bool seen_before(NodeId origin, std::uint32_t id, SimTime now);

  /// Stored pairs, expired ones not yet swept included.
  std::size_t size() const { return entries_.size(); }

 private:
  static constexpr std::size_t kMinSweepAt = 64;

  SimTime ttl_;
  std::size_t sweep_at_ = kMinSweepAt;
  std::unordered_map<std::uint64_t, SimTime> entries_;
};

}  // namespace xfa
