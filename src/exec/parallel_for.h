// Deterministic data-parallel loop over the shared work queue.
//
// parallel_for(pool, n, body) invokes body(i) exactly once for every
// i in [0, n). It is self-scheduling: min(n - 1, pool.size()) helper tasks
// and the calling thread each claim the next unclaimed index from one
// shared counter until none is left, so uneven per-index costs (sub-model
// fits vary with the column) spread over whoever is free. The caller works
// on its own indices before it drains anything else from the queue. Results
// must be written to per-index locations (slot i of a pre-sized vector) —
// then the outcome is byte-identical for any pool size, including 1.
//
// The caller's share is timed and counted into the pool's ExecStats as one
// task, so a call with n >= 2 counts exactly min(n - 1, pool.size()) + 1
// tasks whoever ends up running the indices. Waits cooperatively, so it is
// safe to call from inside pool tasks (nested parallelism).
#pragma once

#include <cstddef>
#include <functional>

#include "exec/thread_pool.h"

namespace xfa {

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace xfa
