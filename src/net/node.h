// Node: a mobile host gluing together routing, transport, audit and attacks.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "net/packet.h"
#include "sim/observe.h"
#include "sim/simulator.h"

namespace xfa {

class Channel;
class Node;

/// Diagnostic counters every routing agent maintains. These are *not* the
/// IDS features (those come from the AuditLog); they exist for tests,
/// examples and protocol-health reporting. Defined here (not in routing/)
/// so the RoutingProtocol interface can expose them without an upward
/// dependency.
struct RoutingStats {
  std::uint64_t discoveries_started = 0;
  std::uint64_t discoveries_succeeded = 0;
  std::uint64_t discoveries_failed = 0;
  std::uint64_t data_forwarded = 0;
  std::uint64_t data_dropped_no_route = 0;
  std::uint64_t data_dropped_malicious = 0;
  std::uint64_t control_originated = 0;
  std::uint64_t control_forwarded = 0;
  std::uint64_t rerr_sent = 0;

  bool operator==(const RoutingStats&) const = default;
};

/// Interface every routing agent (AODV, DSR) implements. The node owns one.
class RoutingProtocol {
 public:
  virtual ~RoutingProtocol() = default;

  /// Called once after the node is fully wired; arms timers (e.g. HELLO).
  virtual void start() {}

  /// Originates an application data packet from this node. The agent finds or
  /// discovers a route and transmits (or buffers) the packet.
  virtual void send_data(Packet&& pkt) = 0;

  /// A packet addressed to this node (unicast to us, or broadcast) arrived.
  /// The handle is shared across the transmission's receivers; copy the
  /// packet (`Packet copy = *pkt;`) before mutating it for a relay.
  virtual void receive(PacketPtr pkt, NodeId from) = 0;

  /// Promiscuous overhear of a unicast between two other nodes.
  virtual void tap(const Packet& pkt, NodeId from, NodeId to) {
    (void)pkt;
    (void)from;
    (void)to;
  }

  /// A unicast we transmitted got no link-layer ACK.
  virtual void link_failure(const Packet& pkt, NodeId to) = 0;

  /// Mean route length over the current route table / cache (Table 4
  /// "average route length"); 0 when empty.
  virtual double average_route_length() const = 0;

  /// Number of usable routes currently known.
  virtual std::size_t route_count() const = 0;

  /// Diagnostic counters; every agent keeps them so callers (the scenario
  /// runner's summary, examples) never downcast to a concrete protocol.
  virtual const RoutingStats& stats() const = 0;

  virtual const char* name() const = 0;
};

/// Receives application data delivered at the final destination.
class TransportSink {
 public:
  virtual ~TransportSink() = default;
  virtual void deliver(const Packet& pkt) = 0;
};

class Node {
 public:
  Node(Simulator& sim, Channel& channel, NodeId id);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const { return id_; }
  Simulator& sim() { return sim_; }
  Channel& channel() { return channel_; }

  /// Auditing is off by default (a 10^4-second run generates tens of
  /// millions of observations network-wide); the scenario runner attaches a
  /// sink on the monitored node(s) only — matching the paper, which
  /// evaluates on audit data "collected on one node only". The sink is
  /// non-owning and must outlive the node (or be detached with nullptr).
  void attach_audit(AuditSink* sink) { audit_ = sink; }
  AuditSink* audit_sink() { return audit_; }
  bool audit_enabled() const { return audit_ != nullptr; }

  void set_routing(std::unique_ptr<RoutingProtocol> routing);
  RoutingProtocol& routing() {
    XFA_CHECK_NE(routing_, nullptr);
    return *routing_;
  }
  const RoutingProtocol& routing() const {
    XFA_CHECK_NE(routing_, nullptr);
    return *routing_;
  }
  bool has_routing() const { return routing_ != nullptr; }

  /// Transport entry point: originate a data packet. Logs (data, sent).
  void send_data(NodeId dst, std::uint32_t flow_id, std::uint32_t seq,
                 std::uint32_t bytes, bool is_ack);

  /// Channel delivery entry points. The PacketPtr overload is the zero-copy
  /// fan-out path; the by-value overload wraps for callers (tests) that
  /// originate a fresh packet.
  void deliver(PacketPtr pkt, NodeId from);
  void deliver(Packet pkt, NodeId from);
  void overhear(const Packet& pkt, NodeId from, NodeId to);
  void link_failure(const Packet& pkt, NodeId to);

  /// Called by the routing agent when a data packet reaches its final
  /// destination here. Logs (data, received) and hands off to the sink.
  void deliver_to_transport(const Packet& pkt);

  /// Transport agents register per flow id to receive delivered packets.
  void register_sink(std::uint32_t flow_id, TransportSink* sink);

  /// Attack hook: the routing agent consults these before forwarding and
  /// drops (maliciously) any packet for which a filter returns true. Several
  /// attack scripts may be installed on one compromised node.
  void add_forward_filter(std::function<bool(const Packet&)> filter) {
    forward_filters_.push_back(std::move(filter));
  }
  bool should_maliciously_drop(const Packet& pkt) const {
    for (const auto& filter : forward_filters_)
      if (filter(pkt)) return true;
    return false;
  }

  /// Audit shorthand used by routing agents.
  void log_packet(AuditPacketType type, FlowDirection dir);
  void log_route_event(RouteEventKind kind);

  /// Diagnostic counters.
  std::uint64_t data_originated() const { return data_originated_; }
  std::uint64_t data_delivered() const { return data_delivered_; }

 private:
  Simulator& sim_;
  Channel& channel_;
  NodeId id_;
  AuditSink* audit_ = nullptr;
  std::unique_ptr<RoutingProtocol> routing_;
  std::unordered_map<std::uint32_t, TransportSink*> sinks_;
  std::vector<std::function<bool(const Packet&)>> forward_filters_;
  std::uint64_t data_originated_ = 0;
  std::uint64_t data_delivered_ = 0;
};

}  // namespace xfa
