// Checkpoint/resume for long bench runs.
//
// A checkpoint directory holds one file per completed plan unit — a
// simulated trace, a trained detector, or a scored trace — published by the
// same keyed artifact store as the trace cache (common/atomic_file.h
// ArtifactStore) under its own magic (XFACKP1) and extension (`.ckpt`).
// append() writes a unit through a unique temp, fsync and atomic rename, so
// a unit it reports as stored survives SIGKILL at any instant; a kill
// mid-store leaves at most a temp file, which the next store's sweep
// removes. A unit file that fails validation is quarantined to `.corrupt`
// and the unit recomputed.
//
// Resume (`open(dir, resume=true)`) needs no replay: lookup() reads a
// unit's file on demand. A fresh open deletes the unit files an earlier run
// left in the directory, and nothing else. Because every unit's payload is
// byte-identical to what recomputation would produce (the determinism
// invariant, DESIGN.md §9), a resumed run's output is byte-identical to an
// uninterrupted run for any kill point and any --threads value.
//
// The store is installed process-wide by the bench CLI
// (install_checkpoint_store); the scenario runner and the checkpointed
// train/score helpers below consult it when present and fall back to plain
// computation when absent. Fault injection for the crash tests: with
// XFA_CRASH_AFTER_UNITS=N, the process raises SIGKILL immediately after the
// Nth durable store.
#pragma once

#include <atomic>
#include <string>
#include <string_view>
#include <vector>

#include "common/atomic_file.h"
#include "common/status.h"
#include "scenario/pipeline.h"

namespace xfa {

class CheckpointStore {
 public:
  CheckpointStore();
  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Opens the store over `directory`, creating it if needed. With `resume`
  /// false the unit files of any earlier run are deleted first. kIoError
  /// when the directory cannot be created.
  Status open(const std::string& directory, bool resume);

  /// True when `key` has a stored unit; copies its payload out. A corrupt
  /// unit file is quarantined and reads as a miss. Thread-safe.
  bool lookup(const std::string& key, std::string& payload) const;

  /// Durably stores one completed unit (fsync'd before returning); storing
  /// a key again replaces its payload. Thread-safe. Honors
  /// XFA_CRASH_AFTER_UNITS (see file comment).
  Status append(const std::string& key, std::string_view payload);

  /// On-disk path of the unit file for `key` (tests, tooling).
  std::string unit_path(const std::string& key) const {
    return store_.path(key);
  }

 private:
  ArtifactStore store_;
  std::atomic<int> stores_{0};
  int crash_after_ = 0;  // snapshot of env().crash_after_units at open()
};

/// Installs `store` as the process-wide checkpoint store (nullptr
/// uninstalls). Not synchronized: call before spawning plan work and after
/// it drains, from the thread driving the CLI.
void install_checkpoint_store(CheckpointStore* store);

/// The installed store, or nullptr when checkpointing is off.
CheckpointStore* checkpoint_store();

/// A trained detector plus the checkpoint key that identifies it — the key
/// prefixes the score-unit keys so a resumed run finds its own units. Empty
/// when no checkpoint store is installed.
struct CheckpointedDetector {
  Detector detector;
  std::string unit_key;
};

/// train_detector_checked with checkpoint integration: on a stored unit the
/// detector is deserialized (scoring bit-identically to the original); on a
/// miss it is trained and the serialized detector stored. Without an
/// installed store this is exactly train_detector_checked, and the unit key
/// is never computed.
Result<CheckpointedDetector> train_detector_checkpointed(
    const RawTrace& train_normal, const ClassifierFactory& factory,
    const DetectorOptions& options = {},
    const RawTrace* threshold_normal = nullptr);

/// Detector::score_trace with checkpoint integration; `detector_key` is the
/// unit_key returned by train_detector_checkpointed. A corrupt stored unit
/// is ignored and the scores recomputed (self-healing, like the trace
/// cache).
std::vector<EventScore> score_trace_checkpointed(
    const Detector& detector, const std::string& detector_key,
    const RawTrace& trace);

}  // namespace xfa
