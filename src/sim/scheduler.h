// Discrete-event scheduler: the heart of the ns-2 replacement.
//
// Storage layout (the simulation-core hot path, see DESIGN.md §10): event
// callbacks live in a free-list slab indexed by the heap entries, so one
// schedule/dispatch cycle costs a slab slot reuse plus a 4-ary-heap
// push/pop — no per-event map insert/find/erase, and (for the common small
// captures) no per-event allocation thanks to InlineFunction's inline
// buffer. Cancellation releases the callback immediately and leaves a
// tombstone in the heap; tombstones are compacted away when they outnumber
// the live entries (see maybe_compact).
#pragma once

#include <cstdint>
#include <vector>

#include "common/inline_function.h"
#include "sim/types.h"

namespace xfa {

/// Opaque handle identifying a scheduled event, usable for cancellation.
/// Encodes (slot generation << 32 | slot index); never 0 for a live event.
using EventId = std::uint64_t;

/// A time-ordered queue of callbacks. Events scheduled for the same time fire
/// in scheduling order (FIFO), which keeps runs deterministic.
class Scheduler {
 public:
  /// Callback storage type: move-only, small-buffer-optimized.
  using Callback = InlineFunction;

  Scheduler() = default;

  /// Current simulation time; advances only inside run loops.
  SimTime now() const { return now_; }

  /// Schedules `fn` to run at absolute time `at` (>= now). Returns an id that
  /// can be passed to cancel().
  EventId schedule_at(SimTime at, Callback fn);

  /// Schedules `fn` to run `delay` seconds from now (delay >= 0).
  EventId schedule_in(SimTime delay, Callback fn);

  /// Cancels a pending event. Cancelling an already-fired or unknown id is a
  /// no-op. Returns true if the event was pending. The callback is destroyed
  /// immediately; only the heap entry lingers as a tombstone.
  bool cancel(EventId id);

  /// Runs events until the queue is empty or simulated time would pass
  /// `until`; the clock ends at `until` if the queue drains earlier.
  /// Cooperative cancellation point: when the calling thread runs under an
  /// expired DeadlineGuard (exec/deadline.h), the loop returns early at the
  /// next poll boundary with events still pending — callers that installed a
  /// guard must check it and discard the partial run.
  void run_until(SimTime until);

  /// Runs until the queue is empty. Same cooperative-cancellation contract
  /// as run_until().
  void run();

  /// Number of events dispatched so far (diagnostic).
  std::uint64_t dispatched() const { return dispatched_; }

  /// Number of successful cancellations so far (diagnostic).
  std::uint64_t cancelled() const { return cancelled_; }

  /// Number of live (not cancelled) events currently pending.
  std::size_t pending() const { return heap_.size() - cancelled_pending_; }

  /// High-water mark of live pending events (diagnostic; perf/ counter).
  std::size_t peak_pending() const { return peak_pending_; }

  /// Number of tombstone compaction passes run so far (diagnostic).
  std::uint64_t compactions() const { return compactions_; }

 private:
  struct Slot {
    Callback fn;
    std::uint32_t generation = 1;  // bumped on release; stale ids miss
    bool armed = false;            // true while a live event owns the slot
  };
  struct Entry {
    SimTime at;
    std::uint64_t seq;  // tie-break: FIFO among same-time events
    std::uint32_t slot;
    std::uint32_t generation;
  };
  /// Strict total order over entries: (at, seq) lexicographic. Because no
  /// two entries ever compare equal, ANY correct heap yields the identical
  /// dispatch sequence — which is what lets the layout below be a d-ary heap
  /// without touching the byte-identity contract.
  static bool earlier(const Entry& a, const Entry& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.seq < b.seq;
  }

  bool live(const Entry& entry) const {
    const Slot& slot = slots_[entry.slot];
    return slot.armed && slot.generation == entry.generation;
  }

  void release_slot(std::uint32_t index);
  void dispatch_next();
  void maybe_compact();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);
  void rebuild_heap();

  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t dispatched_ = 0;
  std::uint64_t cancelled_ = 0;
  std::uint64_t compactions_ = 0;
  std::size_t cancelled_pending_ = 0;
  std::size_t peak_pending_ = 0;
  // 4-ary min-heap of pending entries in a plain vector (root = heap_[0],
  // children of i at 4i+1..4i+4), so compaction can filter tombstones in
  // place. Quaternary beats binary here because pops dominate (every event
  // is pushed once and popped once, and pushes into a deep heap are cheap
  // for monotonically increasing times): half the tree depth means half the
  // cache lines touched per sift-down, at the price of three extra same-line
  // comparisons per level.
  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
};

}  // namespace xfa
