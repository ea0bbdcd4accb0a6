#include "routing/dsr/route_cache.h"

#include <algorithm>

namespace xfa {

void DsrRouteCache::restride(std::size_t stride) {
  std::vector<NodeId> hops(slots_.size() * stride);
  for (std::size_t s = 0; s < slots_.size(); ++s)
    std::ranges::copy(hops_of(s), hops.begin() + s * stride);
  hops_ = std::move(hops);
  stride_ = stride;
}

bool DsrRouteCache::add_path(std::span<const NodeId> hops, SeqNo freshness,
                             SimTime now) {
  if (hops.empty()) return false;
  XFA_CHECK(hops.back() >= 0);
  const std::size_t begin = first_slot(hops.back());
  const std::size_t end = begin + max_paths_per_dst_;
  if (end > slots_.size()) {
    slots_.resize(end);
    hops_.resize(slots_.size() * stride_);
  }
  if (hops.size() > stride_) restride(hops.size());

  std::uint64_t nodes = 0;
  for (const NodeId hop : hops) nodes |= node_bit(hop);
  std::size_t s = begin;
  for (; s < end && slots_[s].length != 0; ++s) {
    if (slots_[s].nodes == nodes && std::ranges::equal(hops_of(s), hops)) {
      // Duplicate: refresh timestamps/freshness only.
      slots_[s].learned_at = now;
      slots_[s].freshness = std::max(slots_[s].freshness, freshness);
      return false;
    }
  }

  min_learned_ = std::min(min_learned_, now);
  if (s == end) {
    // Full: overwrite the worst path (stalest freshness, then longest, then
    // oldest; the earliest slot among equals).
    const auto worse = [](const Slot& a, const Slot& b) {
      if (a.freshness != b.freshness) return a.freshness < b.freshness;
      if (a.length != b.length) return a.length > b.length;
      return a.learned_at < b.learned_at;
    };
    s = begin;
    for (std::size_t t = begin + 1; t < end; ++t)
      if (worse(slots_[t], slots_[s])) s = t;
  }
  slots_[s] = {now, freshness, static_cast<std::uint32_t>(hops.size()),
               nodes};
  std::ranges::copy(hops, hops_.begin() + s * stride_);
  return true;
}

const DsrCachePath* DsrRouteCache::best_path(NodeId dst, SimTime now) const {
  const std::size_t begin = first_slot(dst);
  if (dst < 0 || begin >= slots_.size()) return nullptr;
  std::size_t best = slots_.size();
  for (std::size_t s = begin; s < begin + max_paths_per_dst_; ++s) {
    const Slot& path = slots_[s];
    if (!live(path, now)) continue;
    if (best == slots_.size() || path.freshness > slots_[best].freshness ||
        (path.freshness == slots_[best].freshness &&
         path.length < slots_[best].length)) {
      best = s;
    }
  }
  if (best == slots_.size()) return nullptr;
  const auto hops = hops_of(best);
  best_.hops.assign(hops.begin(), hops.end());
  best_.freshness = slots_[best].freshness;
  best_.learned_at = slots_[best].learned_at;
  return &best_;
}

template <typename Drop>
std::size_t DsrRouteCache::remove_slots(Drop drop) {
  // One read-only pass over every slot; a destination is rewritten only
  // from its first dropped path on.
  std::size_t removed = 0;
  for (std::size_t s = 0; s < slots_.size(); ++s) {
    if (!drop(s)) continue;
    const std::size_t end = s - s % max_paths_per_dst_ + max_paths_per_dst_;
    std::size_t kept = s;
    std::size_t t = s + 1;
    for (; t < end && slots_[t].length != 0; ++t) {
      if (drop(t)) continue;
      std::ranges::copy(hops_of(t), hops_.begin() + kept * stride_);
      slots_[kept++] = slots_[t];
    }
    removed += t - kept;
    std::fill(slots_.begin() + kept, slots_.begin() + t, Slot{});
    s = end - 1;
  }
  return removed;
}

std::size_t DsrRouteCache::remove_link(NodeId from, NodeId to, NodeId owner) {
  // The owner is the implicit first node of every path.
  const std::uint64_t needed =
      node_bit(to) | (from == owner ? 0 : node_bit(from));
  return remove_slots([&](std::size_t s) {
    if ((slots_[s].nodes & needed) != needed) return false;
    const auto hops = hops_of(s);
    if (from == owner && hops.front() == to) return true;
    for (std::size_t i = 1; i < hops.size(); ++i)
      if (hops[i] == to && hops[i - 1] == from) return true;
    return false;
  });
}

std::size_t DsrRouteCache::purge_expired(SimTime now) {
  if (min_learned_ + path_lifetime_ >= now) return 0;
  SimTime min_left = kNoTime;
  const std::size_t removed = remove_slots([&](std::size_t s) {
    if (expired(slots_[s], now)) return true;
    min_left = std::min(min_left, slots_[s].learned_at);
    return false;
  });
  min_learned_ = min_left;
  return removed;
}

std::size_t DsrRouteCache::path_count(SimTime now) const {
  return static_cast<std::size_t>(std::ranges::count_if(
      slots_, [&](const Slot& path) { return live(path, now); }));
}

double DsrRouteCache::average_path_length(SimTime now) const {
  double total = 0;
  for (const Slot& path : slots_)
    if (live(path, now)) total += static_cast<double>(path.length);
  const std::size_t count = path_count(now);
  return count == 0 ? 0.0 : total / static_cast<double>(count);
}

}  // namespace xfa
