#include "routing/route_events.h"

#include <algorithm>
#include <ostream>
#include <utility>

namespace xfa {

std::ostream& operator<<(std::ostream& os, const RoutingStats& stats) {
  os << "discoveries=" << stats.discoveries_started << "/"
     << stats.discoveries_succeeded << " fwd=" << stats.data_forwarded
     << " drop(no-route)=" << stats.data_dropped_no_route
     << " drop(malicious)=" << stats.data_dropped_malicious
     << " ctl=" << stats.control_originated << "+" << stats.control_forwarded
     << " rerr=" << stats.rerr_sent;
  return os;
}

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

}  // namespace xfa
