#include "routing/dsr/dsr.h"

#include <algorithm>
#include <span>
#include <utility>

#include "common/check.h"

namespace xfa {
namespace {

// Route cache sizing (see DESIGN.md, "Routing agents"); the constants
// shared with AODV are in routing/route_events.h.
constexpr std::size_t kMaxPathsPerDst = 3;
constexpr SimTime kPathLifetime = 60.0;

bool contains(std::span<const NodeId> route, NodeId node) {
  return std::ranges::find(route, node) != route.end();
}

}  // namespace

Dsr::Dsr(Node& node)
    : OnDemandAgent(node), cache_(kMaxPathsPerDst, kPathLifetime) {}

void Dsr::start() {
  purge_timer_ = std::make_unique<PeriodicTimer>(
      node_.sim(), kPurgeInterval, [this] { purge_tick(); });
  purge_timer_->start(rng_.uniform(0, kPurgeInterval));
}

double Dsr::average_route_length() const {
  return cache_.average_path_length(node_.sim().now());
}

std::size_t Dsr::route_count() const {
  return cache_.path_count(node_.sim().now());
}

void Dsr::learn_path(std::span<const NodeId> hops, SeqNo freshness,
                     PathOrigin origin) {
  if (hops.empty() || hops.back() == node_.id()) return;
  if (contains(hops, node_.id())) return;  // would self-loop
  if (cache_.add_path(hops, freshness, node_.sim().now())) {
    node_.log_route_event(origin == PathOrigin::Discovery
                              ? RouteEventKind::Add
                              : RouteEventKind::Notice);
  }
}

void Dsr::learn_from_route(const std::vector<NodeId>& route,
                           std::size_t self_index, SeqNo freshness,
                           PathOrigin origin) {
  XFA_CHECK(self_index < route.size() && route[self_index] == node_.id());
  // Downstream sub-paths: self -> route[j] for j > self_index.
  const auto downstream = std::span(route).subspan(self_index + 1);
  for (std::size_t n = 1; n <= downstream.size(); ++n)
    learn_path(downstream.first(n), freshness, origin);
  // Upstream sub-paths self -> route[j] for j = 0 .. self_index - 1, longest
  // first (links assumed bidirectional, as in DSR).
  const auto upstream = reversed(std::span(route).first(self_index));
  for (std::size_t n = upstream.size(); n > 0; --n)
    learn_path(upstream.first(n), freshness, origin);
}

std::span<const NodeId> Dsr::reversed(std::span<const NodeId> route) {
  reversed_.assign(route.rbegin(), route.rend());
  return reversed_;
}

bool Dsr::send_along_route(Packet&& pkt) {
  const SimTime now = node_.sim().now();
  const DsrCachePath* path = cache_.best_path(pkt.dst, now);
  if (path == nullptr) return false;
  DsrSourceRoute route;
  route.hops.reserve(path->hops.size() + 1);
  route.hops.push_back(node_.id());
  route.hops.insert(route.hops.end(), path->hops.begin(), path->hops.end());
  route.cursor = 1;  // index of the next holder
  const NodeId next = route.hops[1];
  pkt.header = std::move(route);
  node_.channel().transmit(node_.id(), std::move(pkt), next);
  return true;
}

void Dsr::send_data(Packet&& pkt) {
  const SimTime now = node_.sim().now();
  if (cache_.best_path(pkt.dst, now) != nullptr) {
    node_.log_route_event(RouteEventKind::Find);
    send_along_route(std::move(pkt));
    return;
  }
  buffer_and_discover(std::move(pkt));
}

void Dsr::send_route_request(NodeId dst) {
  DsrRreqHeader header;
  header.request_id = next_request_id_++;
  header.origin = node_.id();
  header.target = dst;
  header.route_so_far = {node_.id()};
  rreq_seen_.seen_before(node_.id(), header.request_id, node_.sim().now());
  originate(PacketKind::RouteRequest, kBroadcast, kNetDiameterTtl,
            std::move(header), kBroadcast);
}

void Dsr::receive(PacketPtr pkt, NodeId from) {
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
      // DSR has no HELLO beacons; ignore stray ones.
      node_.log_packet(AuditPacketType::Hello, FlowDirection::Received);
      break;
    case PacketKind::Data:
      handle_data(*pkt, from);
      break;
  }
}

void Dsr::handle_rreq(const Packet& pkt, NodeId from) {
  (void)from;
  const SimTime now = node_.sim().now();
  const auto& header = std::get<DsrRreqHeader>(pkt.header);
  if (header.origin == node_.id()) return;
  if (contains(header.route_so_far, node_.id())) return;

  // Learn the reverse of the accumulated route. A forged one-hop
  // route_so_far [victim, attacker] with max freshness poisons this cache:
  // "victim is one hop away, through the attacker".
  const auto upstream = reversed(header.route_so_far);
  for (std::size_t n = 1; n <= upstream.size(); ++n)
    learn_path(upstream.first(n), header.freshness, PathOrigin::Relay);

  if (rreq_seen_.seen_before(header.origin, header.request_id, now)) return;

  if (header.target == node_.id()) {
    // We are the target: reply with the complete accumulated route.
    std::vector<NodeId> full = header.route_so_far;
    full.push_back(node_.id());
    DsrRrepHeader reply;
    reply.origin = header.origin;
    reply.target = node_.id();
    reply.route = full;
    reply.travel.assign(full.rbegin(), full.rend());
    reply.travel_cursor = 1;  // index of the node about to hold the reply
    // route_so_far starts with the origin, so the reply has a next hop.
    const NodeId next = reply.travel[1];
    originate(PacketKind::RouteReply, header.origin, kNetDiameterTtl,
              std::move(reply), next);
    return;
  }

  if (const DsrCachePath* cached = cache_.best_path(header.target, now)) {
    // Splice request path + our cached path, provided it stays loop-free.
    bool loop_free = !contains(cached->hops, header.origin);
    for (const NodeId hop : header.route_so_far)
      if (contains(cached->hops, hop)) loop_free = false;
    if (loop_free) {
      node_.log_route_event(RouteEventKind::Find);
      std::vector<NodeId> full = header.route_so_far;
      full.push_back(node_.id());
      full.insert(full.end(), cached->hops.begin(), cached->hops.end());
      DsrRrepHeader reply;
      reply.origin = header.origin;
      reply.target = header.target;
      reply.route = full;
      reply.freshness = cached->freshness;
      // Travel back along the request path only (we are its last hop).
      reply.travel = {node_.id()};
      reply.travel.insert(reply.travel.end(), header.route_so_far.rbegin(),
                          header.route_so_far.rend());
      reply.travel_cursor = 1;
      const NodeId next = reply.travel[1];
      originate(PacketKind::RouteReply, header.origin, kNetDiameterTtl,
                std::move(reply), next);
      return;
    }
  }

  // Relay the flood, appending ourselves to the accumulated route.
  // Copy-on-write: the shared broadcast handle stays untouched for the
  // other receivers of this transmission.
  if (pkt.ttl <= 1) {
    node_.log_packet(AuditPacketType::RouteRequest, FlowDirection::Dropped);
    return;
  }
  Packet relay = pkt;
  --relay.ttl;
  std::get<DsrRreqHeader>(relay.header).route_so_far.push_back(node_.id());
  relay_flood(std::move(relay));
}

void Dsr::handle_rrep(const Packet& pkt, NodeId from) {
  (void)from;
  const auto& header = std::get<DsrRrepHeader>(pkt.header);

  // Learn from the discovered route.
  const auto self_it =
      std::find(header.route.begin(), header.route.end(), node_.id());
  const bool is_origin = header.origin == node_.id();
  if (self_it != header.route.end()) {
    learn_from_route(header.route,
                     static_cast<std::size_t>(self_it - header.route.begin()),
                     header.freshness,
                     is_origin ? PathOrigin::Discovery : PathOrigin::Relay);
  }

  if (is_origin) {
    complete_discovery(header.target);
    return;
  }

  // Relay along the travel path: we must be the current holder and there
  // must be a next hop. Copy-on-write before advancing the cursor.
  if (header.travel_cursor + 1 >= header.travel.size() ||
      header.travel[header.travel_cursor] != node_.id()) {
    node_.log_packet(AuditPacketType::RouteReply, FlowDirection::Dropped);
    return;
  }
  Packet relay = pkt;
  auto& relay_header = std::get<DsrRrepHeader>(relay.header);
  const NodeId next = relay_header.travel[++relay_header.travel_cursor];
  node_.log_packet(AuditPacketType::RouteReply, FlowDirection::Forwarded);
  ++stats_.control_forwarded;
  node_.channel().transmit(node_.id(), std::move(relay), next);
}

void Dsr::handle_rerr(const Packet& pkt, NodeId from) {
  (void)from;
  const auto& header = std::get<DsrRerrHeader>(pkt.header);
  log_removals(
      cache_.remove_link(header.broken_from, header.broken_to, node_.id()));

  if (pkt.dst == node_.id()) return;
  if (header.travel_cursor + 1 >= header.travel.size() ||
      header.travel[header.travel_cursor] != node_.id()) {
    node_.log_packet(AuditPacketType::RouteError, FlowDirection::Dropped);
    return;
  }
  Packet relay = pkt;  // copy-on-write before advancing the cursor
  auto& relay_header = std::get<DsrRerrHeader>(relay.header);
  const NodeId next = relay_header.travel[++relay_header.travel_cursor];
  node_.log_packet(AuditPacketType::RouteError, FlowDirection::Forwarded);
  ++stats_.control_forwarded;
  node_.channel().transmit(node_.id(), std::move(relay), next);
}

void Dsr::handle_data(const Packet& pkt, NodeId from) {
  (void)from;
  if (pkt.dst == node_.id()) {
    node_.deliver_to_transport(pkt);
    return;
  }
  const auto* route = std::get_if<DsrSourceRoute>(&pkt.header);
  if (route == nullptr || route->cursor >= route->hops.size() ||
      route->hops[route->cursor] != node_.id()) {
    node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Dropped);
    return;
  }
  if (node_.should_maliciously_drop(pkt)) {
    ++stats_.data_dropped_malicious;
    node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Dropped);
    return;
  }
  // Learn from the source route while we're on it.
  learn_from_route(route->hops, route->cursor, 0, PathOrigin::Relay);

  if (route->cursor + 1 >= route->hops.size()) {
    node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Dropped);
    return;
  }
  Packet relay = pkt;  // copy-on-write before advancing the cursor
  auto& relay_route = std::get<DsrSourceRoute>(relay.header);
  ++relay_route.cursor;
  const NodeId next = relay_route.hops[relay_route.cursor];
  node_.log_packet(AuditPacketType::RouteAll, FlowDirection::Forwarded);
  ++stats_.data_forwarded;
  node_.channel().transmit(node_.id(), std::move(relay), next);
}

void Dsr::tap(const Packet& pkt, NodeId from, NodeId to) {
  (void)to;
  // Promiscuous route learning: anything overheard with route information.
  // We can reach `from` directly (we just heard it), so any sub-path of the
  // overheard route anchored at `from` is usable, prefixed with that hop.
  const auto learn_anchored = [&](std::span<const NodeId> route,
                                  SeqNo freshness) {
    const auto it = std::ranges::find(route, from);
    if (it == route.end()) return;
    const auto j = static_cast<std::size_t>(it - route.begin());
    // Downstream of `from`: from -> route[k] for k >= j.
    const auto downstream = route.subspan(j);
    for (std::size_t n = 1; n <= downstream.size(); ++n)
      learn_path(downstream.first(n), freshness, PathOrigin::Overheard);
    // Upstream of `from` (reverse direction): from -> route[k] for
    // k = 0 .. j - 1, longest first.
    const auto upstream = reversed(route.first(j + 1));
    for (std::size_t n = upstream.size(); n > 1; --n)
      learn_path(upstream.first(n), freshness, PathOrigin::Overheard);
  };

  if (const auto* route = std::get_if<DsrSourceRoute>(&pkt.header)) {
    learn_anchored(route->hops, 0);
  } else if (const auto* rrep = std::get_if<DsrRrepHeader>(&pkt.header)) {
    learn_anchored(rrep->route, rrep->freshness);
  } else if (const auto* rerr = std::get_if<DsrRerrHeader>(&pkt.header)) {
    log_removals(
        cache_.remove_link(rerr->broken_from, rerr->broken_to, node_.id()));
  }
}

void Dsr::link_failure(const Packet& pkt, NodeId to) {
  log_removals(cache_.remove_link(node_.id(), to, node_.id()));

  if (pkt.kind != PacketKind::Data) return;

  // Report the broken link to the packet's source.
  if (pkt.src != node_.id()) send_rerr_to(pkt.src, node_.id(), to);

  // Salvage: retry via an alternative cached path (route repair).
  Packet retry = pkt;
  const SimTime now = node_.sim().now();
  if (cache_.best_path(retry.dst, now) != nullptr) {
    node_.log_route_event(RouteEventKind::Repair);
    send_along_route(std::move(retry));
    return;
  }
  if (retry.src == node_.id()) {
    // Our own packet: buffer and rediscover.
    node_.log_route_event(RouteEventKind::Repair);
    buffer_and_discover(std::move(retry));
    return;
  }
  drop_no_route();
}

void Dsr::send_rerr_to(NodeId source, NodeId broken_from, NodeId broken_to) {
  const SimTime now = node_.sim().now();
  const DsrCachePath* back = cache_.best_path(source, now);
  DsrRerrHeader header;
  header.broken_from = broken_from;
  header.broken_to = broken_to;
  header.origin = node_.id();
  header.travel = {node_.id()};
  if (back != nullptr)
    header.travel.insert(header.travel.end(), back->hops.begin(),
                         back->hops.end());
  header.travel_cursor = 1;
  ++stats_.rerr_sent;
  // With no path back to the source, broadcast one hop so neighbors still
  // unlearn the broken link.
  const bool routed = header.travel.size() > 1;
  const NodeId next = routed ? header.travel[1] : kBroadcast;
  originate(PacketKind::RouteError, source,
            routed ? kNetDiameterTtl : std::uint16_t{1}, std::move(header),
            next);
}

void Dsr::purge_tick() {
  log_removals(cache_.purge_expired(node_.sim().now()));
}

void Dsr::inject_bogus_route_advert(NodeId victim) {
  // Paper §4.1: a bogus ROUTE REQUEST "with selected source and destination"
  // whose recorded source route claims a one-hop path [victim -> attacker],
  // with a forged maximum freshness. Receivers reverse it and prefer the
  // fake route to the victim. The selected destination is a phantom node no
  // one has a cached route to, so no intermediate cache reply can answer the
  // flood — the REQUEST propagates network-wide, producing both the paper's
  // flooding overhead and network-wide poisoning.
  DsrRreqHeader header;
  // High-range id: must not collide with the victim's genuine request ids in
  // the network's duplicate-suppression caches.
  header.request_id = 0x80000000u | next_request_id_++;
  header.origin = victim;
  header.target = victim + 1000000;  // phantom destination
  header.route_so_far = {victim, node_.id()};
  header.freshness = kMaxSeqNo;
  originate(PacketKind::RouteRequest, kBroadcast, kNetDiameterTtl,
            std::move(header), kBroadcast);
}

}  // namespace xfa
