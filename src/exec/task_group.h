// Structured task groups over a ThreadPool.
//
// A TaskGroup owns a batch of Status-returning tasks. The first task that
// returns a hard error cancels the group: tasks not yet started are skipped
// (their callables never run), already-running tasks finish, and wait()
// reports that first error. wait() drains the pool cooperatively, so groups
// nest to any depth without deadlocking — a pool task may open its own group
// and wait on it.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>

#include "common/status.h"
#include "exec/thread_pool.h"

namespace xfa {

class TaskGroup {
 public:
  explicit TaskGroup(ThreadPool& pool) : pool_(pool) {}
  /// Joins outstanding tasks; a group must never outlive work it scheduled.
  ~TaskGroup() { wait(); }

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  /// Schedules `task` on the pool. After the group has failed, submissions
  /// are dropped (structured cancellation extends to late submitters).
  void submit(std::function<Status()> task);

  /// True once any task has returned a non-ok Status.
  bool cancelled() const;

  /// Blocks until every scheduled task has finished or been skipped,
  /// cooperatively running queued tasks on the calling thread. Returns the
  /// first hard error (by completion time), or Ok. Resets the group's error
  /// state so the group can be reused for another batch.
  Status wait();

 private:
  ThreadPool& pool_;
  mutable std::mutex mutex_;
  std::condition_variable done_;
  std::size_t pending_ = 0;
  bool failed_ = false;
  Status first_error_;
};

}  // namespace xfa
