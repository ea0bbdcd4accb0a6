// Deterministic data-parallel loop over the shared work queue.
//
// parallel_for(pool, n, body) invokes body(i) exactly once for every
// i in [0, n), partitioned into contiguous blocks. Results must be written
// to per-index locations (slot i of a pre-sized vector) — then the outcome
// is byte-identical for any pool size, including 1. Waits cooperatively, so
// it is safe to call from inside pool tasks (nested parallelism).
#pragma once

#include <cstddef>
#include <functional>

#include "exec/thread_pool.h"

namespace xfa {

void parallel_for(ThreadPool& pool, std::size_t n,
                  const std::function<void(std::size_t)>& body);

}  // namespace xfa
