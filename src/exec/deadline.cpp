#include "exec/deadline.h"

#include <algorithm>

namespace xfa {
namespace {

using Clock = std::chrono::steady_clock;

/// The innermost live DeadlineGuard's deadline on this thread; max() when
/// no guard is installed.
thread_local Clock::time_point t_deadline = Clock::time_point::max();

}  // namespace

DeadlineGuard::DeadlineGuard(double seconds) : previous_(t_deadline) {
  if (seconds <= 0) return;  // disabled: install nothing
  // Far beyond any real run and far inside the clock's range: a larger
  // budget a caller passes (up to infinity) would overflow the integer
  // conversion into a deadline in the past.
  constexpr double kMaxSeconds = 1e9;
  const std::chrono::duration<double> budget(std::min(seconds, kMaxSeconds));
  deadline_ =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(budget);
  active_ = true;
  // A nested guard can shorten the thread's deadline, never extend it.
  t_deadline = std::min(previous_, deadline_);
}

DeadlineGuard::~DeadlineGuard() {
  if (active_) t_deadline = previous_;
}

bool DeadlineGuard::exceeded() const {
  return active_ && Clock::now() >= deadline_;
}

bool deadline_exceeded() {
  return t_deadline != Clock::time_point::max() && Clock::now() >= t_deadline;
}

}  // namespace xfa
