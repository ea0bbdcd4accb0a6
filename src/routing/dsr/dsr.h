// DSR routing agent (Johnson & Maltz), the ns-2 DSR agent equivalent.
//
// Implements: source-routed data delivery, flooded ROUTE REQUEST with route
// accumulation, ROUTE REPLY from the target or from an intermediate node's
// cache, promiscuous route learning ("notice"), ROUTE ERROR + salvaging on
// link failure ("repair"), discovery retry with backoff, and a bounded send
// buffer.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "net/channel.h"
#include "net/node.h"
#include "routing/dsr/route_cache.h"
#include "routing/route_events.h"

namespace xfa {

class Dsr final : public OnDemandAgent {
 public:
  explicit Dsr(Node& node);

  void start() override;
  void send_data(Packet&& pkt) override;
  void receive(PacketPtr pkt, NodeId from) override;
  void tap(const Packet& pkt, NodeId from, NodeId to) override;
  void link_failure(const Packet& pkt, NodeId to) override;
  double average_route_length() const override;
  std::size_t route_count() const override;
  const char* name() const override { return "DSR"; }

  const DsrRouteCache& cache() const { return cache_; }

  /// Broadcasts a forged one-hop ROUTE REQUEST "victim -> me" with maximum
  /// freshness, so every overhearing neighbor reverses it into "victim is
  /// reachable through me".
  void inject_bogus_route_advert(NodeId victim) override;

 private:
  void send_route_request(NodeId dst) override;
  /// Attaches the best cached source route and transmits. Returns false when
  /// no route is cached.
  bool send_along_route(Packet&& pkt) override;
  // Handlers read the shared (zero-copy fan-out) packet through a const ref
  // and deep-copy only on the relay paths that mutate it.
  void handle_rreq(const Packet& pkt, NodeId from);
  void handle_rrep(const Packet& pkt, NodeId from);
  void handle_rerr(const Packet& pkt, NodeId from);
  void handle_data(const Packet& pkt, NodeId from);
  /// Caches `hops` (a view into a packet's route or into reversed_) unless
  /// it is empty or passes through this node.
  void learn_path(std::span<const NodeId> hops, SeqNo freshness,
                  PathOrigin origin);
  /// Extracts the sub-path from this node to every suffix node of `route`
  /// (standard DSR link-by-link learning), relative to `self_index`.
  void learn_from_route(const std::vector<NodeId>& route,
                        std::size_t self_index, SeqNo freshness,
                        PathOrigin origin);
  /// `route` back to front, in reversed_ (reused, so learning allocates
  /// nothing once it has grown).
  std::span<const NodeId> reversed(std::span<const NodeId> route);
  void send_rerr_to(NodeId source, NodeId broken_from, NodeId broken_to);
  void purge_tick();

  DsrRouteCache cache_;

  std::uint32_t next_request_id_ = 1;
  std::unique_ptr<PeriodicTimer> purge_timer_;
  std::vector<NodeId> reversed_;
};

}  // namespace xfa
