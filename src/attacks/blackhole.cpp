#include "attacks/blackhole.h"

#include "net/channel.h"
#include "routing/route_events.h"

namespace xfa {

BlackholeAttack::BlackholeAttack(Node& node, IntrusionSchedule schedule,
                                 const BlackholeConfig& config)
    : node_(node), schedule_(std::move(schedule)), config_(config) {}

void BlackholeAttack::start() {
  // The DoS half: swallow every data packet we are asked to forward while a
  // session is active.
  node_.add_forward_filter([this](const Packet& pkt) {
    return pkt.kind == PacketKind::Data && schedule_.active(node_.sim().now());
  });

  timer_ = std::make_unique<PeriodicTimer>(
      node_.sim(), config_.advert_interval, [this] { advert_round(); });
  timer_->start(config_.advert_interval);
}

void BlackholeAttack::advert_round() {
  if (!schedule_.active(node_.sim().now())) return;
  const auto node_count = static_cast<NodeId>(node_.channel().node_count());
  if (node_count < 2) return;

  // Round-robin over all other nodes so "all sources are covered" within a
  // few advertisement rounds.
  auto* agent = dynamic_cast<OnDemandAgent*>(&node_.routing());
  for (std::size_t i = 0; i < config_.victims_per_round; ++i) {
    const NodeId victim = next_victim_;
    next_victim_ = (next_victim_ + 1) % node_count;
    if (victim == node_.id()) continue;
    if (agent != nullptr) agent->inject_bogus_route_advert(victim);
    ++adverts_sent_;
  }
}

}  // namespace xfa
