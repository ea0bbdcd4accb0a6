#include "exec/thread_pool.h"

#include <chrono>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/env.h"

#if defined(__unix__) || defined(__APPLE__)
#include <ctime>
#define XFA_HAS_THREAD_CPUTIME 1
#endif

namespace xfa {
namespace {

std::size_t resolve_thread_count(std::size_t requested) {
  if (requested != 0) return requested;
  if (env().threads != 0) return env().threads;
  const unsigned hardware = std::thread::hardware_concurrency();
  return hardware != 0 ? hardware : 1;
}

std::uint64_t thread_cpu_ns() {
#ifdef XFA_HAS_THREAD_CPUTIME
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
           static_cast<std::uint64_t>(ts.tv_nsec);
  }
#endif
  return 0;
}

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  const std::size_t count = resolve_thread_count(threads);
  workers_.reserve(count);
  for (std::size_t i = 0; i < count; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  ready_.notify_all();
  for (std::thread& worker : workers_) worker.join();
  // Tasks still queued at destruction would reference a dead pool; the
  // owner must drain (TaskGroup joins in its destructor) before teardown.
  XFA_CHECK(queue_.empty()) << "ThreadPool destroyed with queued tasks";
}

void ThreadPool::submit(std::function<void()> task) {
  XFA_CHECK(task != nullptr);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    XFA_CHECK(!stopping_) << "submit on a stopping ThreadPool";
    queue_.push_back(std::move(task));
  }
  ready_.notify_one();
}

bool ThreadPool::run_pending_task() {
  std::function<void()> task;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (queue_.empty()) return false;
    task = std::move(queue_.front());
    queue_.pop_front();
  }
  execute(task);
  return true;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    execute(task);
  }
}

void ThreadPool::execute(const std::function<void()>& task) {
  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t cpu_start = thread_cpu_ns();
  task();
  const std::uint64_t cpu_end = thread_cpu_ns();
  const auto wall_end = std::chrono::steady_clock::now();
  tasks_executed_.fetch_add(1, std::memory_order_relaxed);
  task_wall_ns_.fetch_add(
      static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(wall_end -
                                                               wall_start)
              .count()),
      std::memory_order_relaxed);
  task_cpu_ns_.fetch_add(monotonic_delta_ns(cpu_start, cpu_end),
                         std::memory_order_relaxed);
}

ExecStats ThreadPool::stats() const {
  ExecStats stats;
  stats.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  stats.task_wall_seconds =
      static_cast<double>(task_wall_ns_.load(std::memory_order_relaxed)) *
      1e-9;
  stats.task_cpu_seconds =
      static_cast<double>(task_cpu_ns_.load(std::memory_order_relaxed)) * 1e-9;
  return stats;
}

namespace {

std::unique_ptr<ThreadPool>& shared_pool_slot() {
  static std::unique_ptr<ThreadPool> pool;
  return pool;
}

std::mutex& shared_pool_mutex() {
  static std::mutex mutex;
  return mutex;
}

}  // namespace

ThreadPool& shared_pool() {
  std::lock_guard<std::mutex> lock(shared_pool_mutex());
  std::unique_ptr<ThreadPool>& pool = shared_pool_slot();
  if (pool == nullptr) pool = std::make_unique<ThreadPool>();
  return *pool;
}

void resize_shared_pool(std::size_t threads) {
  std::lock_guard<std::mutex> lock(shared_pool_mutex());
  std::unique_ptr<ThreadPool>& pool = shared_pool_slot();
  if (pool != nullptr && pool->size() == resolve_thread_count(threads)) return;
  pool.reset();  // join the old workers before the new pool spins up
  pool = std::make_unique<ThreadPool>(threads);
}

}  // namespace xfa
