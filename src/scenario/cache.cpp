#include "scenario/cache.h"

#include <utility>

#include "common/env.h"
#include "scenario/trace_serial.h"

namespace xfa {
namespace {

// Artifact format (XFATRC3): the shared frame from common/atomic_file.h
// (magic, payload size, CRC64 of the payload, payload) around the key and
// the trace body from scenario/trace_serial.h. Every count inside the
// payload is validated against the actual payload size before any
// allocation.
constexpr char kMagic[] = "XFATRC3";

/// The configured cache directory; environment reads go through the
/// immutable process snapshot (common/env.h) so concurrent pool workers
/// never race on getenv.
std::string resolve_directory(std::string directory) {
  if (directory.empty() && !env().no_cache) return env().cache_dir;
  return directory;
}

}  // namespace

TraceCache::TraceCache(std::string directory)
    : store_(resolve_directory(std::move(directory)), kMagic, ".trc"),
      enabled_(!env().no_cache) {}

Result<ScenarioResult> TraceCache::load(const std::string& key) const {
  if (!enabled_) return Status{StatusCode::kNotFound, "cache disabled"};
  ScenarioResult result;
  const Status status = store_.load(key, [&result](std::string_view body) {
    return parse_scenario_payload(body, result);
  });
  if (!status.ok()) return status;
  return result;
}

Status TraceCache::store(const std::string& key,
                         const ScenarioResult& result) const {
  if (!enabled_) return Status::Ok();
  return store_.store(key, [&result](std::string& out) {
    return append_scenario_payload(out, result);
  });
}

}  // namespace xfa
