// Wireless channel: unit-disc connectivity over the mobility model.
//
// Replaces ns-2's PHY/MAC-802.11 stack with the pieces that matter for
// routing-behaviour features: finite radio range, transmission delay from a
// shared-medium bandwidth, small random access jitter, optional random loss,
// promiscuous overhearing, and missing-ACK feedback for unicast failures.
#pragma once

#include <cstdint>
#include <vector>

#include "mobility/waypoint.h"
#include "net/neighbor_index.h"
#include "net/packet.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace xfa {

class Node;

/// Benign-fault hooks the channel consults while transmitting. Implemented
/// by faults/FaultInjector; null means a fault-free medium. The `const`
/// queries read scheduled chaos state (bursts, flaps, crashes); the non-const
/// ones draw from the dedicated fault RNG stream and therefore must be called
/// exactly once per delivery decision to keep traces seed-deterministic.
class FaultModel {
 public:
  virtual ~FaultModel() = default;

  /// Node is crashed: it neither transmits nor receives.
  virtual bool node_down(NodeId node) const = 0;
  /// Link between `a` and `b` is flapped down (symmetric).
  virtual bool link_down(NodeId a, NodeId b) const = 0;
  /// Draw: the delivery is lost to an interference burst.
  virtual bool loses_delivery() = 0;
  /// Draw: the frame arrives corrupted and the receiver's CRC rejects it.
  virtual bool corrupts_delivery() = 0;
  /// Draw: the delivered frame is duplicated at the receiver.
  virtual bool duplicates_delivery() = 0;
  /// Draw: extra queueing/retry delay added to this delivery.
  virtual SimTime extra_delay() = 0;
};

struct ChannelConfig {
  double range_m = 250.0;        // ns-2 default 914MHz WaveLAN range
  double bandwidth_bps = 2e6;    // 2 Mb/s, the classic 802.11 WaveLAN rate
  double loss_rate = 0.0;        // independent per-receiver loss probability
  double max_jitter_s = 0.001;   // uniform medium-access jitter per transmit
  // Deliver promiscuous overhears of unicasts. DSR needs them for its route
  // "notice" mechanism; AODV ignores taps, so runners disable them there to
  // keep the event count down.
  bool promiscuous_taps = true;
  // Upper bound (m/s) on how fast any node's position can change; enables
  // the spatial neighbor grid (see net/neighbor_index.h). Negative (the
  // default) disables the grid and keeps the exact linear scan — required
  // for mobility models without a speed bound, e.g. teleporting
  // StaticPositions::move(). The scenario runner sets this from the
  // waypoint model's configured max speed.
  double max_node_speed = -1.0;
};

/// Channel statistics, global across all nodes (diagnostics and tests).
struct ChannelStats {
  std::uint64_t transmissions = 0;     // transmit() calls
  std::uint64_t deliveries = 0;        // packets handed to a receiving node
  std::uint64_t taps = 0;              // promiscuous overhears delivered
  std::uint64_t random_losses = 0;     // receiver lost packet to loss_rate
  std::uint64_t unicast_failures = 0;  // unicast target out of range / lost
  // Benign-fault activity (all zero without an installed FaultModel).
  std::uint64_t fault_suppressed_tx = 0;  // sender was crashed
  std::uint64_t fault_link_drops = 0;     // receiver crashed / link flapped
  std::uint64_t fault_burst_losses = 0;   // lost to an interference burst
  std::uint64_t fault_corrupted = 0;      // CRC-rejected at the receiver
  std::uint64_t fault_duplicates = 0;     // duplicate deliveries generated

  bool operator==(const ChannelStats&) const = default;
};

class Channel {
 public:
  Channel(Simulator& sim, const MobilityModel& mobility,
          const ChannelConfig& config);

  /// Nodes must register in id order (node id == registration index).
  void register_node(Node& node);

  /// Link-layer transmit from `from`. `to == kBroadcast` reaches every node
  /// in range; a unicast also taps other in-range nodes (promiscuous mode).
  /// A unicast whose target is out of range or suffers loss triggers the
  /// sender's link-failure handler (models a missing 802.11 ACK).
  void transmit(NodeId from, Packet pkt, NodeId to);

  /// Nodes other than `node` within range of it now, in ascending id order.
  std::vector<NodeId> neighbors(NodeId node) const;

  /// Grid/pruning diagnostics (perf/ work counters, property tests).
  const NeighborIndex& neighbor_index() const { return index_; }

  std::size_t node_count() const { return nodes_.size(); }
  const ChannelStats& stats() const { return stats_; }
  const ChannelConfig& config() const { return config_; }
  const MobilityModel& mobility() const { return mobility_; }

  /// Assigns a fresh uid to a packet being originated.
  std::uint64_t next_uid() { return ++last_uid_; }

  /// Installs (or clears, with nullptr) the benign-fault hooks. The model
  /// must outlive the channel's last transmit.
  void set_fault_model(FaultModel* faults) { faults_ = faults; }

 private:
  /// One fault-free transmission's surviving receivers, all arriving at the
  /// same instant. `to` decides per receiver: the target (or everyone, for a
  /// broadcast) gets deliver(), the rest overhear().
  struct Arrival {
    PacketPtr packet;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::vector<NodeId> receivers;  // ascending ids
  };

  SimTime transmission_delay(const Packet& pkt) const;
  /// Fault-free fan-out: one pooled Arrival and one scheduler event.
  /// Returns whether the unicast target received the packet.
  bool schedule_arrival(const PacketPtr& pkt, NodeId from, NodeId to,
                        SimTime delay);
  /// Fan-out under a FaultModel: one event per delivery, since each draws
  /// its own extra delay. Same return contract as schedule_arrival().
  bool schedule_faulted(const PacketPtr& pkt, NodeId from, NodeId to,
                        SimTime delay);
  /// Event body of schedule_arrival(): walks the record, then recycles it.
  void arrive(std::uint32_t index);

  Simulator& sim_;
  const MobilityModel& mobility_;
  ChannelConfig config_;
  Rng rng_;
  std::vector<Node*> nodes_;
  ChannelStats stats_;
  std::uint64_t last_uid_ = 0;
  FaultModel* faults_ = nullptr;
  NeighborIndex index_;
  // Reused per transmit: the exact in-range receiver set, ascending ids.
  mutable std::vector<NodeId> receiver_scratch_;
  // Arrival records addressed by index (a pending event holds only its
  // index, so the pool may grow while records are in flight); released
  // records keep their receiver capacity for reuse.
  std::vector<Arrival> arrivals_;
  std::vector<std::uint32_t> free_arrivals_;
};

}  // namespace xfa
