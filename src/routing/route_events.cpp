#include "routing/route_events.h"

#include <algorithm>
#include <utility>

#include "net/channel.h"

namespace xfa {
namespace {

// AuditPacketType lists the control kinds in PacketKind's order, one place
// further along (RouteAll comes before them).
constexpr AuditPacketType control_audit_type(PacketKind kind) {
  return static_cast<AuditPacketType>(static_cast<int>(kind) + 1);
}
static_assert(control_audit_type(PacketKind::RouteRequest) ==
              AuditPacketType::RouteRequest);
static_assert(control_audit_type(PacketKind::RouteReply) ==
              AuditPacketType::RouteReply);
static_assert(control_audit_type(PacketKind::RouteError) ==
              AuditPacketType::RouteError);
static_assert(control_audit_type(PacketKind::Hello) == AuditPacketType::Hello);

}  // namespace

bool SendBuffer::push(Packet&& pkt) {
  auto& queue = by_dst_[pkt.dst];
  bool overflow = false;
  if (queue.size() >= max_per_dst_) {
    queue.pop_front();
    overflow = true;
  }
  queue.push_back(std::move(pkt));
  return !overflow;
}

std::vector<Packet> SendBuffer::take(NodeId dst) {
  std::vector<Packet> out;
  const auto it = by_dst_.find(dst);
  if (it == by_dst_.end()) return out;
  out.assign(std::make_move_iterator(it->second.begin()),
             std::make_move_iterator(it->second.end()));
  by_dst_.erase(it);
  return out;
}

bool SendBuffer::has_packets_for(NodeId dst) const {
  const auto it = by_dst_.find(dst);
  return it != by_dst_.end() && !it->second.empty();
}

std::size_t SendBuffer::size_for(NodeId dst) const {
  const auto it = by_dst_.find(dst);
  return it == by_dst_.end() ? 0 : it->second.size();
}

bool FloodIdCache::seen_before(NodeId origin, std::uint32_t id, SimTime now) {
  const std::uint64_t key =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(origin)) << 32) |
      id;
  // try_emplace looks the key up before it builds a node, so a repeat
  // sighting allocates nothing.
  const auto [it, inserted] = entries_.try_emplace(key, now + ttl_);
  if (!inserted) {
    const bool live = it->second >= now;  // else the sighting expired
    it->second = now + ttl_;
    return live;
  }
  if (entries_.size() >= sweep_at_) {
    std::erase_if(entries_,
                  [now](const auto& entry) { return entry.second < now; });
    sweep_at_ = std::max(kMinSweepAt, 2 * entries_.size());
  }
  return false;
}

void OnDemandAgent::buffer_and_discover(Packet&& pkt) {
  const NodeId dst = pkt.dst;
  buffer_.push(std::move(pkt));
  if (!pending_discovery_.contains(dst))
    start_discovery(dst, kMaxRreqRetries, next_attempt_id_++);
}

void OnDemandAgent::start_discovery(NodeId dst, int retries_left,
                                    std::uint32_t attempt_id) {
  pending_discovery_[dst] = attempt_id;
  ++stats_.discoveries_started;
  send_route_request(dst);

  const SimTime timeout =
      kRreqRetryTimeout *
      static_cast<double>(1 << (kMaxRreqRetries - retries_left));
  node_.sim().after(timeout, [this, dst, retries_left, attempt_id] {
    const auto it = pending_discovery_.find(dst);
    if (it == pending_discovery_.end() || it->second != attempt_id)
      return;  // answered or superseded
    if (retries_left > 0) {
      start_discovery(dst, retries_left - 1, attempt_id);
      return;
    }
    // Give up: drop everything buffered for this destination.
    pending_discovery_.erase(it);
    ++stats_.discoveries_failed;
    for ([[maybe_unused]] Packet& dropped : buffer_.take(dst))
      drop_no_route();
  });
}

void OnDemandAgent::complete_discovery(NodeId dst) {
  if (pending_discovery_.erase(dst) > 0) ++stats_.discoveries_succeeded;
  for (Packet& pkt : buffer_.take(dst))
    if (!send_along_route(std::move(pkt))) drop_no_route();
}

void OnDemandAgent::originate(PacketKind kind, NodeId dst, std::uint16_t ttl,
                              RoutingHeader header, NodeId next_hop) {
  Packet pkt;
  pkt.kind = kind;
  pkt.src = node_.id();
  pkt.dst = dst;
  pkt.ttl = ttl;
  pkt.size_bytes = kControlPacketBytes;
  pkt.header = std::move(header);
  node_.log_packet(control_audit_type(kind), FlowDirection::Sent);
  ++stats_.control_originated;
  node_.channel().transmit(node_.id(), std::move(pkt), next_hop);
}

void OnDemandAgent::relay_flood(Packet&& relay) {
  node_.log_packet(AuditPacketType::RouteRequest, FlowDirection::Forwarded);
  ++stats_.control_forwarded;
  node_.sim().after(rng_.uniform(0, kForwardJitterS),
                    [this, relay = std::move(relay)]() mutable {
                      node_.channel().transmit(node_.id(), std::move(relay),
                                               kBroadcast);
                    });
}

}  // namespace xfa
