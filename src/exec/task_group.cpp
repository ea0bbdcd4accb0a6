#include "exec/task_group.h"

#include <chrono>
#include <utility>

namespace xfa {

void TaskGroup::submit(std::function<Status()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (failed_) return;  // cancelled: drop instead of scheduling
    ++pending_;
  }
  pool_.submit([this, task = std::move(task)] {
    bool run = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      run = !failed_;
    }
    // A skipped task reports Ok: its absence of effects is what cancellation
    // means, and the group already carries the causal error.
    const Status status = run ? task() : Status::Ok();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!status.ok() && !failed_) {
        failed_ = true;
        first_error_ = status;
      }
      --pending_;
      // Notify while holding the mutex: the moment we release it a waiter
      // may observe pending_ == 0 and destroy the group, so the condition
      // variable must not be touched after the unlock.
      done_.notify_all();
    }
  });
}

bool TaskGroup::cancelled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return failed_;
}

Status TaskGroup::wait() {
  for (;;) {
    // Drain the shared queue first: our pending tasks — or tasks blocking
    // the workers that would run them — may be sitting in it.
    while (pool_.run_pending_task()) {
    }
    std::unique_lock<std::mutex> lock(mutex_);
    if (pending_ == 0) {
      const Status result = failed_ ? first_error_ : Status::Ok();
      failed_ = false;
      first_error_ = Status::Ok();
      return result;
    }
    // Timed wait as a progress backstop: completion of our own tasks
    // notifies done_, but a task freshly queued by a sibling is only
    // observable by polling the pool again.
    done_.wait_for(lock, std::chrono::milliseconds(2));
  }
}

}  // namespace xfa
