#include "exec/parallel_for.h"

#include <algorithm>
#include <atomic>

#include "exec/task_group.h"

namespace xfa {

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  std::atomic<std::size_t> next{0};
  const std::function<void()> claim_all = [&next, &body, n] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < n;
         i = next.fetch_add(1, std::memory_order_relaxed))
      body(i);
  };
  // A helper that starts after the caller claimed the last index returns at
  // once; the count depends only on n and the pool size, never on timing.
  const std::size_t helpers = std::min(n - 1, pool.size());
  TaskGroup group(pool);
  for (std::size_t h = 0; h < helpers; ++h) {
    group.submit([&claim_all] {
      claim_all();
      return Status::Ok();
    });
  }
  pool.execute(claim_all);
  group.wait();  // bodies return no Status; errors abort via XFA_CHECK
}

}  // namespace xfa
