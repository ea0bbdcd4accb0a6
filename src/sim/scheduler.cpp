#include "sim/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"
#include "exec/deadline.h"

namespace xfa {
namespace {

/// Tombstones are compacted only above this heap size: tiny queues re-heapify
/// in microseconds anyway, and the threshold keeps a schedule/cancel/schedule
/// ping-pong from compacting on every other cancel.
constexpr std::size_t kCompactMinEntries = 64;

/// How many events run_until()/run() dispatch between cooperative deadline
/// polls. At typical dispatch rates (millions/s) this bounds cancellation
/// latency well under a millisecond while keeping the check off the per-event
/// path.
constexpr std::uint64_t kDeadlinePollInterval = 1024;

constexpr EventId make_event_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<EventId>(generation) << 32) | slot;
}

}  // namespace

EventId Scheduler::schedule_at(SimTime at, Callback fn) {
  XFA_CHECK(at >= now_) << "cannot schedule into the past";
  XFA_CHECK(fn) << "null event callback";
  std::uint32_t index;
  if (!free_slots_.empty()) {
    index = free_slots_.back();
    free_slots_.pop_back();
  } else {
    XFA_CHECK_LT(slots_.size(), std::numeric_limits<std::uint32_t>::max());
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.armed = true;
  heap_.push_back(Entry{at, next_seq_++, index, slot.generation});
  sift_up(heap_.size() - 1);
  peak_pending_ = std::max(peak_pending_, heap_.size() - cancelled_pending_);
  return make_event_id(index, slot.generation);
}

EventId Scheduler::schedule_in(SimTime delay, Callback fn) {
  XFA_CHECK_GE(delay, 0);
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::release_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.armed = false;
  // Bumping the generation invalidates every EventId and heap entry minted
  // for the previous occupancy (skip 0 so live ids are never 0 on wrap).
  if (++slot.generation == 0) slot.generation = 1;
  free_slots_.push_back(index);
}

bool Scheduler::cancel(EventId id) {
  const auto index = static_cast<std::uint32_t>(id & 0xffffffffu);
  const auto generation = static_cast<std::uint32_t>(id >> 32);
  if (index >= slots_.size()) return false;
  Slot& slot = slots_[index];
  if (!slot.armed || slot.generation != generation) return false;
  slot.fn = Callback();  // release the callback (and its captures) now
  release_slot(index);
  ++cancelled_;
  ++cancelled_pending_;
  maybe_compact();
  return true;
}

void Scheduler::maybe_compact() {
  // Compact when tombstones dominate: cancelled entries otherwise sit in the
  // heap until their fire time, so a schedule-heavy workload that cancels
  // most timers (e.g. per-packet retransmit timers) would grow the heap
  // without bound relative to its live size.
  if (heap_.size() < kCompactMinEntries ||
      cancelled_pending_ * 2 <= heap_.size()) {
    return;
  }
  std::erase_if(heap_, [this](const Entry& entry) { return !live(entry); });
  rebuild_heap();
  cancelled_pending_ = 0;
  ++compactions_;
}

void Scheduler::sift_up(std::size_t i) {
  const Entry entry = heap_[i];
  while (i > 0) {
    const std::size_t parent = (i - 1) / 4;
    if (!earlier(entry, heap_[parent])) break;
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = entry;
}

void Scheduler::sift_down(std::size_t i) {
  const Entry entry = heap_[i];
  const std::size_t n = heap_.size();
  for (;;) {
    const std::size_t first_child = 4 * i + 1;
    if (first_child >= n) break;
    const std::size_t last_child = std::min(first_child + 4, n);
    std::size_t best = first_child;
    for (std::size_t c = first_child + 1; c < last_child; ++c)
      if (earlier(heap_[c], heap_[best])) best = c;
    if (!earlier(heap_[best], entry)) break;
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = entry;
}

void Scheduler::rebuild_heap() {
  if (heap_.size() < 2) return;
  // Floyd heapify: sift down every internal node, deepest first.
  for (std::size_t i = (heap_.size() - 2) / 4 + 1; i-- > 0;) sift_down(i);
}

void Scheduler::dispatch_next() {
  const Entry entry = heap_[0];
  heap_[0] = heap_.back();
  heap_.pop_back();
  if (!heap_.empty()) sift_down(0);
  if (!live(entry)) {
    // Cancelled event: discard the tombstone silently.
    XFA_CHECK_GT(cancelled_pending_, 0);
    --cancelled_pending_;
    return;
  }
  // Dispatch order is the core determinism invariant: the queue must hand
  // back events in non-decreasing time.
  XFA_CHECK_GE(entry.at, now_) << "event queue regressed in time";
  now_ = entry.at;
  // Move out and release the slot before invoking: the callback may
  // schedule/cancel re-entrantly (growing slots_ would invalidate references,
  // and cancelling its own id must be a no-op).
  Callback fn = std::move(slots_[entry.slot].fn);
  release_slot(entry.slot);
  ++dispatched_;
  fn();
}

void Scheduler::run_until(SimTime until) {
  // The deadline poll is amortized over a batch of dispatches: under a guard
  // each poll reads the steady clock, and doing that on every event would put
  // a clock call in the hottest loop of the simulator for a deadline that
  // passes at most once per run. Without a guard the poll never reads it.
  std::uint64_t until_poll = kDeadlinePollInterval;
  while (!heap_.empty() && heap_.front().at <= until) {
    dispatch_next();
    if (--until_poll == 0) {
      if (deadline_exceeded()) return;  // caller observes the guard and bails
      until_poll = kDeadlinePollInterval;
    }
  }
  if (now_ < until) now_ = until;
}

void Scheduler::run() {
  std::uint64_t until_poll = kDeadlinePollInterval;
  while (!heap_.empty()) {
    dispatch_next();
    if (--until_poll == 0) {
      if (deadline_exceeded()) return;
      until_poll = kDeadlinePollInterval;
    }
  }
}

}  // namespace xfa
