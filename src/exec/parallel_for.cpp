#include "exec/parallel_for.h"

#include <algorithm>

#include "exec/task_group.h"

namespace xfa {

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n == 1) {
    body(0);
    return;
  }
  // A few blocks per worker smooths uneven task costs (sub-model fits vary
  // with column cardinality) without drowning the queue in tiny tasks.
  const std::size_t blocks = std::min(n, std::max<std::size_t>(pool.size(), 1) * 4);
  const std::size_t chunk = (n + blocks - 1) / blocks;
  TaskGroup group(pool);
  for (std::size_t begin = 0; begin < n; begin += chunk) {
    const std::size_t end = std::min(begin + chunk, n);
    group.submit([&body, begin, end] {
      for (std::size_t i = begin; i < end; ++i) body(i);
      return Status::Ok();
    });
  }
  group.wait();  // bodies return no Status; errors abort via XFA_CHECK
}

}  // namespace xfa
