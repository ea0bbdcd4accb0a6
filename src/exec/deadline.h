// Soft wall-clock deadlines with cooperative cancellation.
//
// A DeadlineGuard installs a steady_clock time point as the current thread's
// deadline. Long-running work polls deadline_exceeded() at natural
// boundaries (the simulation scheduler checks every 1024 event dispatches),
// which compares that time point against the clock, and unwinds
// cooperatively — nothing is ever interrupted mid-operation, so a cancelled
// simulation just returns early and its caller reports kDeadlineExceeded.
//
// The deadline is thread-local: only the thread that installed it ever reads
// or writes it, so there is no lock, no atomic and no helper thread. The
// guard is scoped: the thread runs under the earliest live deadline, and
// nested guards restore the outer one, so a deadline on a pool task never
// leaks into the next task on that worker. A guard with
// a non-positive budget installs nothing (deadlines off), and with no
// deadline installed the poll is one thread-local read that never touches
// the clock.
#pragma once

#include <chrono>

namespace xfa {

/// RAII deadline for the current thread. The guard also answers for its own
/// deadline, so the owner can distinguish "work finished" from "work
/// finished because it was cancelled" after the fact.
class DeadlineGuard {
 public:
  /// `seconds` <= 0 installs nothing (deadline disabled); a budget above
  /// 1e9 s (about 31 years, infinity included) is clamped to it.
  explicit DeadlineGuard(double seconds);
  ~DeadlineGuard();
  DeadlineGuard(const DeadlineGuard&) = delete;
  DeadlineGuard& operator=(const DeadlineGuard&) = delete;

  bool active() const { return active_; }
  /// True once this guard's deadline has passed.
  bool exceeded() const;

 private:
  std::chrono::steady_clock::time_point deadline_;
  std::chrono::steady_clock::time_point previous_;  // outer deadline
  bool active_ = false;
};

/// True when the calling thread runs under an expired deadline. The cheap
/// cooperative-cancellation poll: with no guard installed it is one
/// thread-local read and always false.
bool deadline_exceeded();

}  // namespace xfa
