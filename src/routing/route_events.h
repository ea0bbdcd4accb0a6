// Shared machinery of the on-demand routing agents (AODV, DSR): the
// protocol constants they share, the send buffer and flood-id cache, and
// OnDemandAgent, the base that owns route discovery and its audit records.
#pragma once

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "net/node.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/types.h"

namespace xfa {

// Constants both agents use (see DESIGN.md, "Routing agents", for their
// RFC 3561 / ns-2 provenance).
inline constexpr SimTime kRreqRetryTimeout = 1.0;  // doubled per retry
inline constexpr int kMaxRreqRetries = 2;
inline constexpr std::uint16_t kNetDiameterTtl = 32;
inline constexpr SimTime kPurgeInterval = 1.0;
inline constexpr double kForwardJitterS = 0.002;  // de-synchronizes floods

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

/// Route discovery shared by AODV and DSR. A source without a route buffers
/// the packet and floods a request. Unanswered, the request is repeated
/// after kRreqRetryTimeout, doubling the wait each time (binary backoff);
/// one timeout after the last of kMaxRreqRetries repeats the discovery gives
/// up and drops what it buffered. A reply completes the discovery and drains
/// the buffer. The protocol supplies the request and the per-packet send
/// through two hooks, which the base calls only to start a discovery and to
/// drain; the per-packet forwarding paths make no virtual call.
class OnDemandAgent : public RoutingProtocol {
 public:
  // Timers and relays capture `this`.
  OnDemandAgent(const OnDemandAgent&) = delete;
  OnDemandAgent& operator=(const OnDemandAgent&) = delete;

  const RoutingStats& stats() const final { return stats_; }

  /// Attack surface used by the black hole script: floods a forged route
  /// request that makes every overhearing node route `victim` through this
  /// one.
  virtual void inject_bogus_route_advert(NodeId victim) = 0;

 protected:
  explicit OnDemandAgent(Node& node)
      : node_(node), rng_(node.sim().fork_rng()) {}

  /// Floods one route request for `dst` (a first try or a retry).
  virtual void send_route_request(NodeId dst) = 0;
  /// Sends a data packet along a known route; false when there is none.
  /// Draining the buffer counts and audits each such miss as a drop.
  virtual bool send_along_route(Packet&& pkt) = 0;

  /// Buffers `pkt` and starts a discovery for its destination unless one
  /// is already in flight.
  void buffer_and_discover(Packet&& pkt);
  /// A reply for `dst` reached its origin: ends the discovery (if one is in
  /// flight) and drains the buffer through send_along_route().
  void complete_discovery(NodeId dst);

  /// Sends a control packet this node originates: stamps source, TTL and
  /// control size, audits it as sent and counts it.
  void originate(PacketKind kind, NodeId dst, std::uint16_t ttl,
                 RoutingHeader header, NodeId next_hop);
  /// Audits and counts a flood relay, then rebroadcasts it after a random
  /// jitter of up to kForwardJitterS.
  void relay_flood(Packet&& relay);

  void drop_no_route() {
    ++stats_.data_dropped_no_route;
    node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Dropped);
  }
  void log_removals(std::size_t count) {
    for (std::size_t i = 0; i < count; ++i)
      node_.log_route_event(RouteEventKind::Remove);
  }

  Node& node_;
  Rng rng_;
  SendBuffer buffer_;
  FloodIdCache rreq_seen_;
  RoutingStats stats_;

 private:
  void start_discovery(NodeId dst, int retries_left, std::uint32_t attempt_id);

  // Destinations with a discovery in flight -> current attempt id (guards
  // stale retry timers).
  std::unordered_map<NodeId, std::uint32_t> pending_discovery_;
  std::uint32_t next_attempt_id_ = 1;
};

}  // namespace xfa
