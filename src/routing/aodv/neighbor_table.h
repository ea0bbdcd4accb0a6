// Last-heard time per neighbor id, in memory proportional to the neighbor
// count.
//
// An open-addressed hash table: linear probing from slot `id & mask` over a
// power-of-two slot array that is kept at most half full, and backward-shift
// deletion, so no tombstones build up and a probe chain never passes an
// empty slot. Refreshing a present neighbor, the per-packet case, is one
// probe in the common case. Node ids are small and dense, so `id & mask`
// spreads one node's neighbors evenly enough without a hash function.
#pragma once

#include <cstddef>
#include <vector>

#include "common/check.h"
#include "sim/types.h"

namespace xfa {

class NeighborTable {
 public:
  /// Time `id` was last heard, or nullptr when it is not in the table.
  const SimTime* find(NodeId id) const {
    if (slots_.empty()) return nullptr;
    for (std::size_t i = home(id);; i = next(i)) {
      if (slots_[i].id == id) return &slots_[i].heard_at;
      if (slots_[i].id == kEmpty) return nullptr;
    }
  }

  /// Records that `id` was heard at `now`. Returns true when `id` was not in
  /// the table before.
  bool assign(NodeId id, SimTime now) {
    XFA_DCHECK(id != kEmpty);
    if (!slots_.empty()) {
      std::size_t i = home(id);
      for (; slots_[i].id != kEmpty; i = next(i)) {
        if (slots_[i].id == id) {
          slots_[i].heard_at = now;
          return false;
        }
      }
      if (2 * (size_ + 1) <= slots_.size()) {
        slots_[i] = {id, now};
        ++size_;
        return true;
      }
    }
    grow();
    place(id, now);
    ++size_;
    return true;
  }

  /// Removes `id`; a no-op when it is absent.
  void erase(NodeId id) {
    if (slots_.empty()) return;
    std::size_t hole = home(id);
    for (; slots_[hole].id != id; hole = next(hole)) {
      if (slots_[hole].id == kEmpty) return;
    }
    --size_;
    // Backward shift: pull each later member of the chain into the hole
    // unless that would move it before its home slot.
    for (std::size_t j = next(hole); slots_[j].id != kEmpty; j = next(j)) {
      const std::size_t displacement = (j - home(slots_[j].id)) & mask();
      if (displacement >= ((j - hole) & mask())) {
        slots_[hole] = slots_[j];
        hole = j;
      }
    }
    slots_[hole].id = kEmpty;
  }

  std::size_t size() const { return size_; }
  /// Allocated slots: a power of two, at least twice size().
  std::size_t slot_count() const { return slots_.size(); }

 private:
  static constexpr NodeId kEmpty = kInvalidNode;
  static constexpr std::size_t kMinSlots = 8;

  struct Slot {
    NodeId id = kEmpty;
    SimTime heard_at = 0;
  };

  std::size_t mask() const { return slots_.size() - 1; }
  std::size_t home(NodeId id) const {
    return static_cast<std::size_t>(id) & mask();
  }
  std::size_t next(std::size_t i) const { return (i + 1) & mask(); }

  // Stores `id`, known absent, in the first empty slot of its chain.
  void place(NodeId id, SimTime now) {
    std::size_t i = home(id);
    while (slots_[i].id != kEmpty) i = next(i);
    slots_[i] = {id, now};
  }

  void grow() {
    std::vector<Slot> old(slots_.empty() ? kMinSlots : 2 * slots_.size());
    old.swap(slots_);
    for (const Slot& slot : old) {
      if (slot.id != kEmpty) place(slot.id, slot.heard_at);
    }
  }

  std::vector<Slot> slots_;
  std::size_t size_ = 0;
};

}  // namespace xfa
