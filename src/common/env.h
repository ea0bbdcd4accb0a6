// Process-wide snapshot of the XFA_* environment variables.
//
// POSIX makes std::getenv racy against any concurrent setenv(), and the
// execution layer (src/exec) runs scenario work on a shared thread pool — so
// the environment is read exactly once, before any worker touches it, into
// an immutable snapshot that every subsequent lookup reads lock-free.
//
// Tests that mutate the environment (setenv/unsetenv) must call
// refresh_env_for_testing() afterwards, while no pool tasks are in flight.
#pragma once

#include <cstddef>
#include <string>

namespace xfa {

struct EnvSnapshot {
  /// XFA_FAST=1: 4x scaled-down experiment durations/schedules.
  bool fast = false;
  /// XFA_NO_CACHE=1: trace cache loads nothing and stores nothing.
  bool no_cache = false;
  /// XFA_CACHE_DIR: trace-cache directory.
  std::string cache_dir = "xfa_cache";
  /// XFA_THREADS: default worker count for the shared pool; 0 = hardware
  /// concurrency (resolved by the pool, src/exec/thread_pool.h). A value
  /// above kMaxThreads keeps the default.
  std::size_t threads = 0;
  /// XFA_TRACE_DEADLINE_MS: soft wall-clock budget for one trace simulation
  /// (src/exec/deadline.h); 0 = no deadline. A run that overruns it fails
  /// with kDeadlineExceeded; it is not run again.
  int trace_deadline_ms = 0;
};

/// The snapshot, captured on first use (thread-safe via magic static).
const EnvSnapshot& env();

/// Re-reads the environment into the snapshot. Test-only: callers must
/// guarantee no concurrent reader (idle pool), since readers are lock-free.
void refresh_env_for_testing();

}  // namespace xfa
