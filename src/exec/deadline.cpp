#include "exec/deadline.h"

namespace xfa {
namespace {

using Clock = std::chrono::steady_clock;

/// The innermost live DeadlineGuard's deadline on this thread; max() when
/// no guard is installed.
thread_local Clock::time_point t_deadline = Clock::time_point::max();

}  // namespace

DeadlineGuard::DeadlineGuard(double seconds) : previous_(t_deadline) {
  if (seconds <= 0) return;  // disabled: install nothing
  deadline_ = Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(seconds));
  active_ = true;
  t_deadline = deadline_;
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
