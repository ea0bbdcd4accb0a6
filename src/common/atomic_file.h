// Crash-safe file publication and CRC-framed artifact I/O.
//
// Every artifact writer in the tree (trace cache, model store, checkpoint
// store) funnels through this file — the xfa_lint `atomic-write` rule
// rejects raw std::ofstream / fopen anywhere else under src/ — so the
// crash-safety invariants live in exactly one place:
//
//   * atomic_write_file: bytes go to a per-writer-unique temp file
//     (`<path>.<pid>.<seq>.tmp`), are fsync'd, then renamed onto `path`.
//     Readers observe either the old complete file or the new complete file,
//     never a prefix, for any kill point.
//   * write_framed_file / read_framed_payload: the shared artifact framing
//     (magic, u64 payload size, u64 CRC64 of the payload, payload) used by
//     every artifact: XFAMDL1 model files directly, XFATRC3 traces and
//     XFACKP1 checkpoint units through ArtifactStore. The reader validates
//     the declared size against the real file size before allocating and
//     the checksum before parsing, so no on-disk bytes can crash a loader.
//   * ArtifactStore: a directory of keyed framed artifacts, one file per
//     key, with fnv1a file naming, hash-collision detection and quarantine
//     of corrupt files. The trace cache and the checkpoint store are both
//     instances of it.
//   * sweep_stale_temps: deletes `*.tmp` litter abandoned by writers whose
//     embedded pid is no longer alive.
#pragma once

#include <functional>
#include <string>
#include <string_view>

#include "common/status.h"

namespace xfa {

/// Writes `bytes` to a unique temp next to `path`, fsyncs, and atomically
/// renames onto `path`. On any failure the temp file is removed and nothing
/// is published (kIoError). Does not create parent directories.
Status atomic_write_file(const std::string& path, std::string_view bytes);

/// Reads the whole file. kNotFound when the file does not exist; kIoError
/// for any other read failure.
Result<std::string> read_file_bytes(const std::string& path);

/// Serializes the framed artifact (magic + size + CRC64 + payload) in memory
/// and publishes it via atomic_write_file.
Status write_framed_file(const std::string& path, std::string_view magic,
                         std::string_view payload);

/// Reads a framed artifact and returns its payload after validating magic,
/// declared size (against the real file size, so a hostile length field
/// never drives the allocation) and checksum. kNotFound when missing;
/// kCorruptArtifact (with a human-readable reason, file NOT quarantined —
/// that policy belongs to the caller) on any validation failure.
Result<std::string> read_framed_payload(const std::string& path,
                                        std::string_view magic);

/// Moves a failed artifact aside to `<path>.corrupt` so the next run
/// regenerates it while the bad bytes stay available for post-mortems.
/// Never throws; if even removal fails the caller still regenerates and an
/// atomic rename will overwrite the bad file.
void quarantine_file(const std::string& path);

/// Deletes `*.tmp` files abandoned in `directory` by crashed writers. A temp
/// whose embedded pid is still alive is never touched (the old age-based
/// sweep could delete a live slow writer's temp); a temp with a dead pid is
/// removed immediately, and a temp whose name does not parse falls back to a
/// 24-hour age bound. Best-effort: all filesystem errors are swallowed.
void sweep_stale_temps(const std::string& directory);

/// A directory of keyed artifacts: one framed file per key, named
/// `<fnv1a(key) as 16 hex digits><extension>`, whose payload starts with the
/// key itself (a u64-length string, common/serial.h) followed by the body a
/// codec writes. The trace cache (XFATRC3) and the checkpoint store are both
/// this class under their own magic; neither touches files directly.
///
/// Every unit is a pure function of its key, so the store needs no locks:
/// concurrent stores of one key (threads or processes) publish identical
/// bytes through unique temps and an atomic rename, and the last rename
/// wins. A stored artifact is durable once store() returns
/// (atomic_write_file fsyncs the file and its directory).
class ArtifactStore {
 public:
  ArtifactStore(std::string directory, std::string_view magic,
                std::string_view extension);

  /// On-disk path of the artifact for `key`.
  std::string path(const std::string& key) const;

  /// Loads the artifact for `key` and hands the bytes after the embedded
  /// key to `decode`. Failure statuses:
  ///   kNotFound         no file, or a healthy file holding a different key
  ///                     (an fnv1a collision — left untouched);
  ///   kCorruptArtifact  the frame failed validation or `decode` returned
  ///                     false; the file was quarantined to `<path>.corrupt`;
  ///   kIoError          the file exists but could not be read (untouched).
  Status load(const std::string& key,
              const std::function<bool(std::string_view body)>& decode) const;

  /// Publishes the artifact for `key`: the frame header and the key go into
  /// one buffer, `encode` appends the body straight behind them, and the
  /// sealed buffer is written with atomic_write_file. Creates the directory
  /// on demand. An `encode` failure publishes nothing and is returned. A
  /// successful store also sweeps temps abandoned by crashed writers
  /// (sweep_stale_temps).
  Status store(const std::string& key,
               const std::function<Status(std::string& out)>& encode) const;

  /// Deletes every artifact file of this store's naming scheme in the
  /// directory. Other files (another store's extension, quarantined
  /// `.corrupt` copies, anything foreign) are left alone.
  void clear() const;

 private:
  std::string directory_;
  std::string magic_;
  std::string extension_;
};

}  // namespace xfa
