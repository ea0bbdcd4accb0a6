#include "net/channel.h"

#include <memory>
#include <utility>

#include "common/check.h"
#include "net/node.h"

namespace xfa {

Channel::Channel(Simulator& sim, const MobilityModel& mobility,
                 const ChannelConfig& config)
    : sim_(sim),
      mobility_(mobility),
      config_(config),
      rng_(sim.fork_rng()),
      index_(mobility, config.range_m, config.max_node_speed) {
  XFA_CHECK(config.range_m > 0 && config.bandwidth_bps > 0);
  XFA_CHECK(config.loss_rate >= 0 && config.loss_rate < 1);
}

void Channel::register_node(Node& node) {
  XFA_CHECK(node.id() == static_cast<NodeId>(nodes_.size()))
      << "nodes must register in id order";
  nodes_.push_back(&node);
  index_.set_node_count(nodes_.size());
}

std::vector<NodeId> Channel::neighbors(NodeId node) const {
  std::vector<NodeId> out;
  index_.in_range_of(node, sim_.now(), out);
  return out;
}

SimTime Channel::transmission_delay(const Packet& pkt) const {
  return static_cast<double>(pkt.size_bytes) * 8.0 / config_.bandwidth_bps;
}

void Channel::transmit(NodeId from, Packet pkt, NodeId to) {
  XFA_CHECK(from >= 0 && static_cast<std::size_t>(from) < nodes_.size());
  // Routing agents drop expired packets before handing them down, so a
  // zero-TTL or zero-size packet on the channel is a protocol bug.
  XFA_CHECK_GT(pkt.ttl, 0) << pkt.describe();
  XFA_CHECK_GT(pkt.size_bytes, 0u) << pkt.describe();
  // A crashed sender's pending transmits (timers firing mid-crash) radiate
  // nothing; receivers see the usual symptom, silence.
  if (faults_ != nullptr && faults_->node_down(from)) {
    ++stats_.fault_suppressed_tx;
    return;
  }
  ++stats_.transmissions;
  if (pkt.uid == 0) pkt.uid = next_uid();

  const SimTime delay =
      transmission_delay(pkt) + rng_.uniform(0, config_.max_jitter_s);
  // One immutable packet shared by every arrival/link-failure event
  // scheduled below (zero-copy fan-out): receivers read through a refcount
  // bump instead of a deep copy of the vector-bearing routing headers.
  const PacketPtr shared = std::make_shared<const Packet>(std::move(pkt));
  // Connectivity is evaluated at transmit time; at these speeds nodes move
  // < 1 mm within the delay, so this matches evaluating at arrival time.
  // The grid-pruned receiver set is exact and in ascending node-id order —
  // the per-receiver RNG draws below must happen in that order to keep
  // traces byte-identical.
  receiver_scratch_.clear();
  index_.in_range_of(from, sim_.now(), receiver_scratch_);
  const bool unicast_delivered =
      faults_ == nullptr ? schedule_arrival(shared, from, to, delay)
                         : schedule_faulted(shared, from, to, delay);

  if (to != kBroadcast && !unicast_delivered) {
    ++stats_.unicast_failures;
    Node* sender = nodes_[static_cast<std::size_t>(from)];
    // Missing-ACK detection takes roughly one retry round at the MAC.
    sim_.after(delay + 0.01,
               [sender, shared, to] { sender->link_failure(*shared, to); });
  }
}

bool Channel::schedule_arrival(const PacketPtr& pkt, NodeId from, NodeId to,
                               SimTime delay) {
  std::uint32_t index;
  if (free_arrivals_.empty()) {
    index = static_cast<std::uint32_t>(arrivals_.size());
    arrivals_.emplace_back();
  } else {
    index = free_arrivals_.back();
    free_arrivals_.pop_back();
  }
  Arrival& arrival = arrivals_[index];
  bool unicast_delivered = false;
  for (const NodeId rid : receiver_scratch_) {
    if (config_.loss_rate > 0 && rng_.chance(config_.loss_rate)) {
      ++stats_.random_losses;
      continue;
    }
    if (to == kBroadcast || rid == to) {
      if (rid == to) unicast_delivered = true;
      ++stats_.deliveries;
    } else if (config_.promiscuous_taps) {
      ++stats_.taps;
    } else {
      continue;
    }
    arrival.receivers.push_back(rid);
  }
  if (arrival.receivers.empty()) {
    free_arrivals_.push_back(index);
    return unicast_delivered;
  }
  arrival.packet = pkt;
  arrival.from = from;
  arrival.to = to;
  // Every arrival of this transmission shares one time, so per-receiver
  // events would have taken consecutive sequence numbers: one event walking
  // the receivers in the same order dispatches them identically, and
  // whatever a receiver schedules is sequenced after the whole batch either
  // way (DESIGN.md §10).
  sim_.after(delay, [this, index] { arrive(index); });
  return unicast_delivered;
}

void Channel::arrive(std::uint32_t index) {
  // Moved out for the walk: a receiver may transmit from its handler, which
  // can grow arrivals_ and invalidate references into it. The slot itself
  // stays off the free list until the walk is done.
  Arrival arrival = std::move(arrivals_[index]);
  for (const NodeId rid : arrival.receivers) {
    Node* receiver = nodes_[static_cast<std::size_t>(rid)];
    if (arrival.to == kBroadcast || rid == arrival.to) {
      receiver->deliver(arrival.packet, arrival.from);
    } else {
      receiver->overhear(*arrival.packet, arrival.from, arrival.to);
    }
  }
  arrival.packet.reset();
  arrival.receivers.clear();
  arrivals_[index] = std::move(arrival);
  free_arrivals_.push_back(index);
}

bool Channel::schedule_faulted(const PacketPtr& pkt, NodeId from, NodeId to,
                               SimTime delay) {
  bool unicast_delivered = false;
  for (const NodeId rid : receiver_scratch_) {
    Node* receiver = nodes_[static_cast<std::size_t>(rid)];
    if (faults_->node_down(rid) || faults_->link_down(from, rid)) {
      ++stats_.fault_link_drops;
      continue;
    }
    if (config_.loss_rate > 0 && rng_.chance(config_.loss_rate)) {
      ++stats_.random_losses;
      continue;
    }
    if (faults_->loses_delivery()) {
      ++stats_.fault_burst_losses;
      continue;
    }
    // A corrupted frame fails the receiver CRC: dropped on arrival, and a
    // corrupted unicast leaves unicast_delivered false so the sender gets
    // the same missing-ACK feedback as any other loss.
    if (faults_->corrupts_delivery()) {
      ++stats_.fault_corrupted;
      continue;
    }
    const SimTime rx_delay = delay + faults_->extra_delay();
    if (to == kBroadcast || rid == to) {
      if (rid == to) unicast_delivered = true;
      ++stats_.deliveries;
      sim_.after(rx_delay, [receiver, pkt, from] {
        receiver->deliver(pkt, from);
      });
      // MAC retransmission whose ACK was lost: the receiver sees the frame
      // twice, slightly reordered against other traffic.
      if (faults_->duplicates_delivery()) {
        ++stats_.fault_duplicates;
        ++stats_.deliveries;
        sim_.after(rx_delay + faults_->extra_delay(), [receiver, pkt, from] {
          receiver->deliver(pkt, from);
        });
      }
    } else if (config_.promiscuous_taps) {
      ++stats_.taps;
      sim_.after(rx_delay, [receiver, pkt, from, to] {
        receiver->overhear(*pkt, from, to);
      });
    }
  }
  return unicast_delivered;
}

}  // namespace xfa
