#include "routing/aodv/aodv.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"

namespace xfa {
namespace {

// AODV-only timing (see DESIGN.md, "Routing agents"); the constants shared
// with DSR are in routing/route_events.h.
constexpr SimTime kActiveRouteTimeout = 10.0;  // route lifetime added on use
constexpr SimTime kHelloInterval = 1.0;
constexpr double kAllowedHelloLoss = 2.5;  // missed HELLOs before "dead"

}  // namespace

void Aodv::start() {
  hello_timer_ = std::make_unique<PeriodicTimer>(
      node_.sim(), kHelloInterval, [this] {
        originate(PacketKind::Hello, kBroadcast, 1,
                  AodvHelloHeader{++hello_seqno_}, kBroadcast);
      });
  // Stagger beacons across nodes to avoid synchronized bursts.
  hello_timer_->start(rng_.uniform(0, kHelloInterval));

  purge_timer_ = std::make_unique<PeriodicTimer>(
      node_.sim(), kPurgeInterval, [this] { purge_tick(); });
  purge_timer_->start(rng_.uniform(0, kPurgeInterval));
}

void Aodv::log_route_update(RouteUpdate update, bool learned_passively) {
  if (update == RouteUpdate::Added) {
    node_.log_route_event(learned_passively ? RouteEventKind::Notice
                                            : RouteEventKind::Add);
  }
}

double Aodv::average_route_length() const {
  return table_.average_hop_count(node_.sim().now());
}

std::size_t Aodv::route_count() const {
  return table_.valid_route_count(node_.sim().now());
}

void Aodv::send_data(Packet&& pkt) {
  const SimTime now = node_.sim().now();
  if (const AodvRouteEntry* route = table_.lookup(pkt.dst, now)) {
    node_.log_route_event(RouteEventKind::Find);
    forward_data(std::move(pkt), *route);
    return;
  }
  buffer_and_discover(std::move(pkt));
}

void Aodv::send_route_request(NodeId dst) {
  ++my_seqno_;
  AodvRreqHeader header;
  header.rreq_id = next_rreq_id_++;
  header.origin = node_.id();
  header.origin_seqno = my_seqno_;
  header.target = dst;
  const AodvRouteEntry* stale = table_.lookup_any(dst);
  header.target_seqno_known = stale != nullptr && stale->seqno_valid;
  header.target_seqno = header.target_seqno_known ? stale->seqno : 0;
  header.hop_count = 0;
  // Suppress handling our own flood when it is relayed back to us.
  rreq_seen_.seen_before(node_.id(), header.rreq_id, node_.sim().now());
  originate(PacketKind::RouteRequest, kBroadcast, kNetDiameterTtl, header,
            kBroadcast);
}

void Aodv::receive(PacketPtr pkt, NodeId from) {
  switch (pkt->kind) {
    case PacketKind::RouteRequest:
      node_.log_packet(AuditPacketType::RouteRequest, FlowDirection::Received);
      handle_rreq(*pkt, from);
      break;
    case PacketKind::RouteReply:
      node_.log_packet(AuditPacketType::RouteReply, FlowDirection::Received);
      handle_rrep(*pkt, from);
      break;
    case PacketKind::RouteError:
      node_.log_packet(AuditPacketType::RouteError, FlowDirection::Received);
      handle_rerr(*pkt, from);
      break;
    case PacketKind::Hello:
      node_.log_packet(AuditPacketType::Hello, FlowDirection::Received);
      handle_hello(*pkt, from);
      break;
    case PacketKind::Data:
      handle_data(*pkt, from);
      break;
  }
}

void Aodv::handle_rreq(const Packet& pkt, NodeId from) {
  const SimTime now = node_.sim().now();
  const auto& header = std::get<AodvRreqHeader>(pkt.header);

  // Install/refresh the reverse route to the originator through the sender.
  // This is the state the black hole poisons with a forged max seqno.
  if (header.origin != node_.id()) {
    const RouteUpdate update = table_.update(
        header.origin, from, static_cast<std::uint16_t>(header.hop_count + 1),
        header.origin_seqno, true, now + kActiveRouteTimeout, now);
    log_route_update(update, /*learned_passively=*/true);
  }
  note_neighbor(from, now);

  if (rreq_seen_.seen_before(header.origin, header.rreq_id, now)) return;
  if (header.origin == node_.id()) return;

  if (header.target == node_.id()) {
    // We are the destination: answer with our own (incremented) seqno.
    if (header.target_seqno_known && header.target_seqno > my_seqno_)
      my_seqno_ = header.target_seqno;
    ++my_seqno_;
    send_rrep(header, from, /*from_cache=*/false, now);
    return;
  }

  // Intermediate reply when we have a fresh-enough valid route.
  const AodvRouteEntry* route = table_.lookup(header.target, now);
  if (route != nullptr && route->seqno_valid &&
      (!header.target_seqno_known || route->seqno >= header.target_seqno)) {
    node_.log_route_event(RouteEventKind::Find);
    send_rrep(header, from, /*from_cache=*/true, now);
    return;
  }

  // Otherwise relay the flood. Copy-on-write: the shared packet stays
  // untouched for the other receivers of this broadcast.
  if (pkt.ttl <= 1) {
    node_.log_packet(AuditPacketType::RouteRequest, FlowDirection::Dropped);
    return;
  }
  Packet relay = pkt;
  --relay.ttl;
  ++std::get<AodvRreqHeader>(relay.header).hop_count;
  relay_flood(std::move(relay));
}

void Aodv::send_rrep(const AodvRreqHeader& rreq, NodeId reply_to,
                     bool from_cache, SimTime now) {
  AodvRrepHeader reply;
  reply.origin = rreq.origin;
  reply.target = rreq.target;
  if (from_cache) {
    const AodvRouteEntry* route = table_.lookup(rreq.target, now);
    XFA_CHECK_NE(route, nullptr);
    reply.target_seqno = route->seqno;
    reply.hop_count = static_cast<std::uint16_t>(route->hop_count);
    reply.lifetime = route->expiry - now;
  } else {
    reply.target_seqno = my_seqno_;
    reply.hop_count = 0;
    reply.lifetime = kActiveRouteTimeout;
  }
  originate(PacketKind::RouteReply, rreq.origin, kNetDiameterTtl, reply,
            reply_to);
}

void Aodv::handle_rrep(const Packet& pkt, NodeId from) {
  const SimTime now = node_.sim().now();
  const auto& header = std::get<AodvRrepHeader>(pkt.header);
  note_neighbor(from, now);

  // Install/refresh the forward route to the target through the sender.
  const RouteUpdate update = table_.update(
      header.target, from, static_cast<std::uint16_t>(header.hop_count + 1),
      header.target_seqno, true, now + std::max(header.lifetime, 1.0), now);
  log_route_update(update, /*learned_passively=*/false);

  if (header.origin == node_.id()) {
    complete_discovery(header.target);
    return;
  }

  // Relay toward the originator along the reverse route (copy-on-write).
  const AodvRouteEntry* back = table_.lookup(header.origin, now);
  if (back == nullptr || pkt.ttl <= 1) {
    node_.log_packet(AuditPacketType::RouteReply, FlowDirection::Dropped);
    return;
  }
  Packet relay = pkt;
  --relay.ttl;
  ++std::get<AodvRrepHeader>(relay.header).hop_count;
  node_.log_packet(AuditPacketType::RouteReply, FlowDirection::Forwarded);
  ++stats_.control_forwarded;
  node_.channel().transmit(node_.id(), std::move(relay), back->next_hop);
}

void Aodv::handle_rerr(const Packet& pkt, NodeId from) {
  const SimTime now = node_.sim().now();
  const auto& header = std::get<AodvRerrHeader>(pkt.header);

  // Invalidate affected routes that go through the RERR sender and collect
  // the ones we must in turn report upstream.
  std::vector<std::pair<NodeId, SeqNo>> to_propagate;
  for (const auto& [dst, seqno] : header.unreachable) {
    const AodvRouteEntry* route = table_.lookup(dst, now);
    if (route != nullptr && route->next_hop == from) {
      table_.invalidate(dst, now);
      node_.log_route_event(RouteEventKind::Remove);
      to_propagate.emplace_back(dst, seqno);
    }
  }
  if (!to_propagate.empty()) {
    node_.log_packet(AuditPacketType::RouteError, FlowDirection::Forwarded);
    ++stats_.control_forwarded;
    Packet relay;
    relay.kind = PacketKind::RouteError;
    relay.src = node_.id();
    relay.dst = kBroadcast;
    relay.ttl = 1;
    relay.size_bytes = kControlPacketBytes;
    relay.header = AodvRerrHeader{std::move(to_propagate)};
    node_.channel().transmit(node_.id(), std::move(relay), kBroadcast);
  }
}

void Aodv::handle_hello(const Packet& pkt, NodeId from) {
  const SimTime now = node_.sim().now();
  const auto& header = std::get<AodvHelloHeader>(pkt.header);
  note_neighbor(from, now);
  const SimTime lifetime = kAllowedHelloLoss * kHelloInterval;
  const RouteUpdate update =
      table_.update(from, from, 1, header.seqno, true, now + lifetime, now);
  log_route_update(update, /*learned_passively=*/true);
}

void Aodv::handle_data(const Packet& pkt, NodeId from) {
  (void)from;
  const SimTime now = node_.sim().now();
  if (pkt.dst == node_.id()) {
    node_.deliver_to_transport(pkt);
    return;
  }
  // Intermediate hop: the packet is travelling inside routing encapsulation.
  if (node_.should_maliciously_drop(pkt)) {
    ++stats_.data_dropped_malicious;
    node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Dropped);
    return;
  }
  const AodvRouteEntry* route = table_.lookup(pkt.dst, now);
  if (route == nullptr) {
    drop_no_route();
    const AodvRouteEntry* stale = table_.lookup_any(pkt.dst);
    send_rerr({{pkt.dst, stale != nullptr ? stale->seqno : 0}});
    return;
  }
  if (pkt.ttl <= 1) {
    // Routing loop or over-long path: discard.
    drop_no_route();
    return;
  }
  Packet relay = pkt;  // copy-on-write off the shared broadcast handle
  --relay.ttl;
  node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Forwarded);
  ++stats_.data_forwarded;
  forward_data(std::move(relay), *route);
}

void Aodv::forward_data(Packet&& pkt, const AodvRouteEntry& route) {
  table_.refresh_lifetime(route.dst,
                          node_.sim().now() + kActiveRouteTimeout);
  node_.channel().transmit(node_.id(), std::move(pkt), route.next_hop);
}

void Aodv::send_rerr(std::vector<std::pair<NodeId, SeqNo>> unreachable) {
  if (unreachable.empty()) return;
  ++stats_.rerr_sent;
  originate(PacketKind::RouteError, kBroadcast, 1,
            AodvRerrHeader{std::move(unreachable)}, kBroadcast);
}

void Aodv::note_neighbor(NodeId from, SimTime now) {
  // Hot path for every received packet: one table probe. The hash map
  // (whose iteration order purge_tick depends on for byte-identity) is only
  // touched when the neighbor set actually changes.
  if (neighbor_heard_at_.assign(from, now))
    neighbor_last_heard_.emplace(from, now);
}

void Aodv::link_failure(const Packet& pkt, NodeId to) {
  const SimTime now = node_.sim().now();
  neighbor_last_heard_.erase(to);
  neighbor_heard_at_.erase(to);
  auto broken = table_.invalidate_via(to, now);
  log_removals(broken.size());

  if (pkt.kind == PacketKind::Data) {
    // Attempt repair: re-discover the destination and retry the packet.
    node_.log_route_event(RouteEventKind::Repair);
    buffer_and_discover(Packet(pkt));
  }
  send_rerr(std::move(broken));
}

bool Aodv::send_along_route(Packet&& pkt) {
  const AodvRouteEntry* route = table_.lookup(pkt.dst, node_.sim().now());
  if (route == nullptr) return false;
  forward_data(std::move(pkt), *route);
  return true;
}

void Aodv::purge_tick() {
  const SimTime now = node_.sim().now();
  log_removals(table_.purge_expired(now));

  // Expire silent neighbors (missing HELLOs) and the routes through them.
  const SimTime deadline = now - kAllowedHelloLoss * kHelloInterval;
  for (auto it = neighbor_last_heard_.begin();
       it != neighbor_last_heard_.end();) {
    // Authoritative timestamps live in the table (see note_neighbor); the
    // map supplies only membership and its byte-load-bearing iteration order.
    if (*neighbor_heard_at_.find(it->first) < deadline) {
      auto broken = table_.invalidate_via(it->first, now);
      log_removals(broken.size());
      send_rerr(std::move(broken));
      neighbor_heard_at_.erase(it->first);
      it = neighbor_last_heard_.erase(it);
    } else {
      ++it;
    }
  }
}

void Aodv::inject_bogus_route_advert(NodeId victim) {
  // Paper §4.1: forge a RREQ whose origin (and target) is the victim, with
  // the maximum allowed sequence number and hop count 0, so every receiver
  // installs "victim, one hop, via attacker" and prefers it forever.
  AodvRreqHeader header;
  // High-range id: must not collide with the victim's genuine RREQ ids in
  // the network's duplicate-suppression caches.
  header.rreq_id = 0x80000000u | next_rreq_id_++;
  header.origin = victim;
  header.origin_seqno = kMaxSeqNo;
  header.target = victim;
  header.target_seqno_known = false;
  header.hop_count = 0;
  originate(PacketKind::RouteRequest, kBroadcast, kNetDiameterTtl, header,
            kBroadcast);
}

}  // namespace xfa
