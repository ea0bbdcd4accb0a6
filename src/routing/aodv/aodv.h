// AODV routing agent (Perkins & Royer), the ns-2 AODV agent equivalent.
//
// Implements: on-demand route discovery (flooded RREQ answered by RREP from
// the target or a fresh intermediate route), hop-by-hop data forwarding via a
// sequence-numbered route table, RERR propagation on link failure, HELLO
// neighbor beacons, discovery retry with binary backoff, and a bounded send
// buffer. Audit events follow Table 4/5 of the paper (add / remove / find /
// notice / repair; per-type packet observations).
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "net/channel.h"
#include "net/node.h"
#include "routing/aodv/neighbor_table.h"
#include "routing/aodv/route_table.h"
#include "routing/route_events.h"

namespace xfa {

class Aodv final : public OnDemandAgent {
 public:
  explicit Aodv(Node& node) : OnDemandAgent(node) {}

  void start() override;
  void send_data(Packet&& pkt) override;
  void receive(PacketPtr pkt, NodeId from) override;
  void link_failure(const Packet& pkt, NodeId to) override;
  double average_route_length() const override;
  std::size_t route_count() const override;
  const char* name() const override { return "AODV"; }

  const AodvRouteTable& table() const { return table_; }

  /// Broadcasts a forged RREQ that makes every overhearing neighbor install
  /// "victim is one hop away, via me" with the maximum sequence number.
  void inject_bogus_route_advert(NodeId victim) override;

 private:
  void send_route_request(NodeId dst) override;
  bool send_along_route(Packet&& pkt) override;
  // Handlers read the shared (zero-copy fan-out) packet through a const ref
  // and deep-copy only on the relay paths that mutate ttl / hop counts.
  void handle_rreq(const Packet& pkt, NodeId from);
  void handle_rrep(const Packet& pkt, NodeId from);
  void handle_rerr(const Packet& pkt, NodeId from);
  void handle_hello(const Packet& pkt, NodeId from);
  void handle_data(const Packet& pkt, NodeId from);
  void send_rrep(const AodvRreqHeader& rreq, NodeId reply_to, bool from_cache,
                 SimTime now);
  void send_rerr(std::vector<std::pair<NodeId, SeqNo>> unreachable);
  void forward_data(Packet&& pkt, const AodvRouteEntry& route);
  void purge_tick();
  void log_route_update(RouteUpdate update, bool learned_passively);
  void note_neighbor(NodeId from, SimTime now);

  AodvRouteTable table_;

  SeqNo my_seqno_ = 1;
  std::uint32_t next_rreq_id_ = 1;
  SeqNo hello_seqno_ = 0;
  // Neighbor liveness lives in two structures that always hold the same
  // ids. purge_tick() expires neighbors in the hash map's iteration order and
  // sends one RERR per dead neighbor, and each RERR broadcast draws
  // per-receiver RNG jitter. So the map's iteration order is part of the
  // trace byte-identity contract: the container cannot change, and it is
  // touched only when membership changes (new neighbor, link failure,
  // expiry). Its mapped value is meaningless.
  // The per-packet "heard X just now" store goes to the open-addressed
  // table, which holds the timestamps in memory proportional to the
  // neighbor count.
  std::unordered_map<NodeId, SimTime> neighbor_last_heard_;
  NeighborTable neighbor_heard_at_;

  std::unique_ptr<PeriodicTimer> hello_timer_;
  std::unique_ptr<PeriodicTimer> purge_timer_;
};

}  // namespace xfa
