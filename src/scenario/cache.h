// On-disk trace cache: a 10^4-second simulation takes seconds, and every
// bench binary wants the same traces, so runs are persisted keyed on the
// scenario's canonical config string.
//
// The cache is the keyed artifact store (common/atomic_file.h
// ArtifactStore) under the XFATRC3 magic, one `<fnv1a(key)>.trc` file per
// trace, with the trace codec from scenario/trace_serial.h as the body. It
// is self-healing: a CRC64 covers the whole payload and every length field
// is validated against the file size before any allocation, so no on-disk
// bytes (truncated, bit-flipped, or hostile) can crash or abort the
// process. A file that fails validation is quarantined to
// `<name>.trc.corrupt` and load() reports kCorruptArtifact; the scenario
// runner then transparently regenerates it.
#pragma once

#include <string>

#include "common/atomic_file.h"
#include "common/status.h"
#include "scenario/runner.h"

namespace xfa {

class TraceCache {
 public:
  /// `directory` empty => resolve from $XFA_CACHE_DIR, default "xfa_cache".
  explicit TraceCache(std::string directory = {});

  /// Disabled caches load nothing and store nothing (XFA_NO_CACHE=1).
  bool enabled() const { return enabled_; }

  /// Loads the artifact for `key`. Failure statuses:
  ///   kNotFound         miss (no file, cache disabled, or a hash-collision
  ///                     file holding a different key — left untouched);
  ///   kCorruptArtifact  the file failed validation and was quarantined to
  ///                     `<path>.corrupt`.
  Result<ScenarioResult> load(const std::string& key) const;

  /// Atomically publishes the artifact for `key` (ArtifactStore::store): a
  /// per-writer-unique temp file, so concurrent stores — threads or
  /// processes — never interleave, then fsync and atomic rename. On failure
  /// nothing is published (kIoError). Successful stores also sweep temps
  /// abandoned by crashed writers; a live writer's temp is never deleted,
  /// however slow the writer.
  Status store(const std::string& key, const ScenarioResult& result) const;

  /// On-disk path an artifact for `key` would use (tests, tooling).
  std::string artifact_path(const std::string& key) const {
    return store_.path(key);
  }

 private:
  ArtifactStore store_;
  bool enabled_ = true;
};

}  // namespace xfa
