#include "common/env.h"

#include <cstdint>
#include <cstdlib>
#include <limits>

#include "common/parse.h"
#include "exec/thread_pool.h"

namespace xfa {
namespace {

bool flag_set(const char* name) {
  const char* value = std::getenv(name);
  return value != nullptr && value[0] == '1';
}

/// Overwrites `*field` with `name`'s value when it is a strict unsigned
/// integer (common/parse.h) no larger than `limit`; a missing, malformed or
/// out-of-range value keeps the documented default.
template <typename T>
void read_unsigned(const char* name, T* field,
                   T limit = std::numeric_limits<T>::max()) {
  const char* value = std::getenv(name);
  if (value == nullptr) return;
  const Result<std::uint64_t> parsed = parse_u64(value);
  if (parsed.ok() && *parsed <= static_cast<std::uint64_t>(limit))
    *field = static_cast<T>(*parsed);
}

EnvSnapshot read_environment() {
  EnvSnapshot snapshot;
  snapshot.fast = flag_set("XFA_FAST");
  snapshot.no_cache = flag_set("XFA_NO_CACHE");
  if (const char* dir = std::getenv("XFA_CACHE_DIR");
      dir != nullptr && dir[0] != '\0') {
    snapshot.cache_dir = dir;
  }
  read_unsigned("XFA_SCENARIO_RETRIES", &snapshot.scenario_retries);
  read_unsigned("XFA_THREADS", &snapshot.threads, kMaxThreads);
  read_unsigned("XFA_TRACE_DEADLINE_MS", &snapshot.trace_deadline_ms);
  return snapshot;
}

EnvSnapshot& mutable_snapshot() {
  static EnvSnapshot snapshot = read_environment();
  return snapshot;
}

}  // namespace

const EnvSnapshot& env() { return mutable_snapshot(); }

void refresh_env_for_testing() { mutable_snapshot() = read_environment(); }

}  // namespace xfa
