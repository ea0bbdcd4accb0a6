// DSR path cache: complete source routes learned from discovery, relaying
// and promiscuous eavesdropping.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/check.h"
#include "net/packet.h"
#include "sim/types.h"

namespace xfa {

struct DsrCachePath {
  // Path from the cache owner to the destination, *excluding* the owner
  // itself: hops.front() is the first hop, hops.back() is the destination.
  std::vector<NodeId> hops;
  SeqNo freshness = 0;  // the black hole forges kMaxSeqNo here
  SimTime learned_at = 0;
};

/// How a path entered the cache; determines the audit event the agent logs.
enum class PathOrigin {
  Discovery,  // ROUTE REPLY for our own request -> "add"
  Relay,      // accumulated while relaying control     -> "notice"
  Overheard,  // promiscuous tap                        -> "notice"
};

class DsrRouteCache {
 public:
  explicit DsrRouteCache(std::size_t max_paths_per_dst = 3,
                         SimTime path_lifetime = 60.0)
      : max_paths_per_dst_(max_paths_per_dst), path_lifetime_(path_lifetime) {
    XFA_CHECK(max_paths_per_dst > 0);
  }

  /// Copies `hops` in as a path to `hops.back()`; true if it was stored. A
  /// duplicate only refreshes learned_at and raises freshness (false).
  bool add_path(std::span<const NodeId> hops, SeqNo freshness, SimTime now);

  /// Best current path to `dst`: freshest first, then shortest, then the
  /// earliest slot. A duplicate refresh keeps its path's slot, so ties do not
  /// go to the most recently learned path. Returns nullptr if none; otherwise
  /// a copy that stays valid until the next best_path call.
  const DsrCachePath* best_path(NodeId dst, SimTime now) const;

  /// Removes every path using the directed link from->to. Returns the number
  /// of paths removed (each is a route "remove" event).
  std::size_t remove_link(NodeId from, NodeId to, NodeId owner);

  /// Drops expired paths; returns how many were removed.
  std::size_t purge_expired(SimTime now);

  std::size_t path_count(SimTime now) const;
  double average_path_length(SimTime now) const;

 private:
  static constexpr SimTime kNoTime = 1e300;
  struct Slot {  // a free slot is all defaults: no hops, never expires
    SimTime learned_at = kNoTime;
    SeqNo freshness = 0;
    std::uint32_t length = 0;  // hop count
    // node_bit of every hop: remove_link and the duplicate check read the
    // hops only when this can match.
    std::uint64_t nodes = 0;
  };
  static std::uint64_t node_bit(NodeId node) {
    return std::uint64_t{1} << (static_cast<std::uint32_t>(node) % 64);
  }
  bool expired(const Slot& slot, SimTime now) const {
    return slot.learned_at + path_lifetime_ < now;
  }
  bool live(const Slot& slot, SimTime now) const {
    return slot.length != 0 && !expired(slot, now);
  }
  std::size_t first_slot(NodeId dst) const {
    return static_cast<std::size_t>(dst) * max_paths_per_dst_;
  }
  std::span<const NodeId> hops_of(std::size_t slot) const {
    return {hops_.data() + slot * stride_, slots_[slot].length};
  }
  void restride(std::size_t stride);
  /// Frees, keeping slot order, every path for which `drop(slot)` holds;
  /// `drop` must be false for free slots. Returns the number freed.
  template <typename Drop>
  std::size_t remove_slots(Drop drop);

  std::size_t max_paths_per_dst_;
  SimTime path_lifetime_;
  // Destination d owns the max_paths_per_dst_ slots from first_slot(d), its
  // paths filling a prefix of them in slot order; node ids are dense, so the
  // id is the index. Slot s keeps its hops at hops_[s * stride_], stride_
  // being the longest path stored so far.
  std::vector<Slot> slots_;
  std::vector<NodeId> hops_;
  std::size_t stride_ = 0;
  // Lower bound on the earliest stored learned_at (+inf when empty), so
  // purge_expired can skip its scan. Removals only raise the true minimum;
  // the bound stays sound until the next scan recomputes it.
  SimTime min_learned_ = kNoTime;
  mutable DsrCachePath best_;  // best_path's result
};

}  // namespace xfa
