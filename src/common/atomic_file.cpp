#include "common/atomic_file.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>
#endif

#include "common/crc64.h"
#include "common/serial.h"

namespace xfa {
namespace {

namespace fs = std::filesystem;

constexpr std::size_t kFrameLengthFields = 2 * sizeof(std::uint64_t);

unsigned long long current_pid() {
#if defined(__unix__) || defined(__APPLE__)
  return static_cast<unsigned long long>(getpid());
#else
  return 0;
#endif
}

/// Flush + fsync; returns false on failure. On platforms without fsync the
/// flush alone has to do.
bool sync_stream(std::FILE* file) {
  if (std::fflush(file) != 0) return false;
#if defined(__unix__) || defined(__APPLE__)
  if (fsync(fileno(file)) != 0) return false;
#endif
  return true;
}

/// Best-effort directory fsync so the rename itself is durable.
void sync_directory(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  const fs::path parent = fs::path(path).parent_path();
  const std::string dir = parent.empty() ? "." : parent.string();
  const int fd = ::open(dir.c_str(), O_RDONLY);
  if (fd >= 0) {
    fsync(fd);
    ::close(fd);
  }
#else
  (void)path;
#endif
}

/// True when `pid` names a live process (or one we cannot probe, which is
/// treated as live: deleting a live writer's temp is the failure mode this
/// sweep exists to avoid, so all ambiguity resolves to "keep").
bool pid_alive(unsigned long long pid) {
#if defined(__unix__) || defined(__APPLE__)
  if (pid == 0 || pid > static_cast<unsigned long long>(INT32_MAX))
    return false;
  if (kill(static_cast<pid_t>(pid), 0) == 0) return true;
  return errno != ESRCH;
#else
  (void)pid;
  return true;  // no liveness probe: fall back to the age bound
#endif
}

/// Parses `<base>.<pid>.<seq>.tmp`; false when the name predates the unique
/// temp scheme (those fall back to the age bound).
bool parse_temp_pid(const std::string& filename, unsigned long long& pid) {
  // filename ends with ".tmp"; walk back over "<seq>" then "<pid>".
  const std::size_t tmp_dot = filename.rfind('.');
  if (tmp_dot == std::string::npos || tmp_dot == 0 ||
      filename.substr(tmp_dot) != ".tmp")
    return false;
  const std::size_t seq_dot = filename.rfind('.', tmp_dot - 1);
  if (seq_dot == std::string::npos || seq_dot == 0 || seq_dot + 1 == tmp_dot)
    return false;
  const std::size_t pid_dot = filename.rfind('.', seq_dot - 1);
  if (pid_dot == std::string::npos || pid_dot + 1 == seq_dot) return false;
  for (std::size_t i = pid_dot + 1; i < tmp_dot; ++i)
    if (i != seq_dot && (filename[i] < '0' || filename[i] > '9')) return false;
  pid = std::strtoull(filename.c_str() + pid_dot + 1, nullptr, 10);
  return true;
}

/// Starts a frame: the magic plus zeroed size and CRC fields, which
/// seal_frame fills in once the payload behind them is complete. Writers
/// append the payload straight into this buffer, so the frame costs no copy.
std::string open_frame(std::string_view magic) {
  std::string blob;
  blob.reserve(magic.size() + kFrameLengthFields);
  blob.append(magic.data(), magic.size());
  blob.append(kFrameLengthFields, '\0');
  return blob;
}

/// Writes the payload size and CRC64 into a frame from open_frame.
void seal_frame(std::string& blob, std::size_t magic_size) {
  const std::size_t header_size = magic_size + kFrameLengthFields;
  const auto payload_size =
      static_cast<std::uint64_t>(blob.size() - header_size);
  const std::uint64_t crc =
      crc64(blob.data() + header_size, blob.size() - header_size);
  std::memcpy(blob.data() + magic_size, &payload_size, sizeof(payload_size));
  std::memcpy(blob.data() + magic_size + sizeof(payload_size), &crc,
              sizeof(crc));
}

/// Reads the whole file. kNotFound when the file does not exist; kIoError
/// for any other read failure.
Result<std::string> read_file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) return Status{StatusCode::kNotFound, path};
  std::string bytes;
  std::error_code ec;
  const std::uintmax_t size = fs::file_size(path, ec);
  if (ec) return Status{StatusCode::kIoError, path + ": " + ec.message()};
  bytes.resize(static_cast<std::size_t>(size));
  is.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!is && size != 0)
    return Status{StatusCode::kIoError, path + ": short read"};
  return bytes;
}

/// Reads a framed file and validates magic, declared size and checksum;
/// returns the whole file (header included) so callers can view the payload
/// in place.
Result<std::string> read_framed_blob(const std::string& path,
                                     std::string_view magic) {
  Result<std::string> bytes = read_file_bytes(path);
  if (!bytes.ok()) return bytes.status();
  const std::string& blob = *bytes;
  const std::size_t header_size = magic.size() + kFrameLengthFields;
  if (blob.size() < header_size ||
      std::memcmp(blob.data(), magic.data(), magic.size()) != 0)
    return Status{StatusCode::kCorruptArtifact, "bad or truncated header"};

  // Old format revisions fail the magic check above and heal the same way
  // every other invalid file does: the caller quarantines + regenerates.
  std::uint64_t payload_size = 0, stored_crc = 0;
  std::memcpy(&payload_size, blob.data() + magic.size(), sizeof(payload_size));
  std::memcpy(&stored_crc, blob.data() + magic.size() + sizeof(payload_size),
              sizeof(stored_crc));

  // The declared size must match the bytes actually present, which both
  // rejects truncation and caps the read at the real file size — a hostile
  // length field never drives the allocation.
  if (payload_size != blob.size() - header_size)
    return Status{StatusCode::kCorruptArtifact,
                  "payload size disagrees with file size"};
  if (crc64(blob.data() + header_size, blob.size() - header_size) !=
      stored_crc)
    return Status{StatusCode::kCorruptArtifact, "payload checksum mismatch"};
  return bytes;
}

/// Moves a failed artifact aside to `<path>.corrupt` so the next run
/// regenerates it while the bad bytes stay available for post-mortems.
/// Never throws; if even removal fails the caller still regenerates and an
/// atomic rename will overwrite the bad file.
void quarantine_file(const std::string& path) {
  const std::string corrupt = path + ".corrupt";
  std::error_code ec;
  fs::remove(corrupt, ec);
  fs::rename(path, corrupt, ec);
  if (ec) fs::remove(path, ec);
}

/// 64-bit FNV-1a: the artifact file name of a key.
std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

Status atomic_write_file(const std::string& path, std::string_view bytes) {
  // The temp name must be unique per writer: a shared `path + ".tmp"` lets
  // two concurrent writers interleave into one file and publish the mixture.
  // pid disambiguates processes, the atomic counter disambiguates threads.
  static std::atomic<std::uint64_t> temp_sequence{0};
  const std::string tmp = path + "." + std::to_string(current_pid()) + "." +
                          std::to_string(temp_sequence.fetch_add(1)) + ".tmp";
  std::error_code ec;
  std::FILE* file = std::fopen(tmp.c_str(), "wb");
  if (file == nullptr) return {StatusCode::kIoError, tmp + ": cannot open"};
  const std::size_t written =
      bytes.empty() ? 0 : std::fwrite(bytes.data(), 1, bytes.size(), file);
  // A partially-written artifact must never be published: on any write or
  // sync failure drop the temp file instead of renaming it into place.
  const bool synced = sync_stream(file);
  const bool closed = std::fclose(file) == 0;
  if (written != bytes.size() || !synced || !closed) {
    fs::remove(tmp, ec);
    return {StatusCode::kIoError, tmp + ": write failed"};
  }
  fs::rename(tmp, path, ec);  // atomic publish
  if (ec) {
    fs::remove(tmp, ec);
    return {StatusCode::kIoError, path + ": rename failed"};
  }
  sync_directory(path);
  return Status::Ok();
}

void sweep_stale_temps(const std::string& directory) {
  // A writer that crashed between open and rename leaves its unique temp
  // file behind forever. A temp is only swept once its writer is provably
  // gone: the pid embedded in the name no longer exists, or (when the name
  // does not parse, or the platform cannot probe) the file is older than a
  // bound far beyond any real store. Age alone at a small threshold is a
  // race — a live writer on a badly overloaded host can hold a temp open
  // arbitrarily long, and deleting it under the writer publishes nothing.
  constexpr auto kOrphanAge = std::chrono::hours(24);
  std::error_code ec;
  fs::directory_iterator it(directory, ec);
  if (ec) return;
  const auto now = fs::file_time_type::clock::now();
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    const fs::path& p = entry.path();
    if (p.extension() != ".tmp") continue;
    unsigned long long pid = 0;
    if (parse_temp_pid(p.filename().string(), pid)) {
      if (!pid_alive(pid)) {
        fs::remove(p, ec);
        continue;
      }
      // Live pid: either the writer is mid-store or the pid was recycled.
      // Both cases fall through to the conservative age bound.
    }
    const auto written = fs::last_write_time(p, ec);
    if (ec) continue;
    if (now - written > kOrphanAge) fs::remove(p, ec);
  }
}

ArtifactStore::ArtifactStore(std::string directory, std::string_view magic,
                             std::string_view extension)
    : directory_(std::move(directory)), magic_(magic), extension_(extension) {}

std::string ArtifactStore::path(const std::string& key) const {
  char name[17];
  std::snprintf(name, sizeof(name), "%016llx",
                static_cast<unsigned long long>(fnv1a(key)));
  return directory_ + "/" + name + extension_;
}

Status ArtifactStore::load(
    const std::string& key,
    const std::function<bool(std::string_view body)>& decode) const {
  const std::string file = path(key);
  const auto corrupt = [&file](const std::string& what) {
    quarantine_file(file);
    return Status{StatusCode::kCorruptArtifact,
                  file + ": " + what + " (quarantined to " + file +
                      ".corrupt)"};
  };
  Result<std::string> blob = read_framed_blob(file, magic_);
  if (!blob.ok()) {
    if (blob.status().code() == StatusCode::kCorruptArtifact)
      return corrupt(blob.status().message());
    return blob.status();  // kNotFound (miss) or kIoError, both untouched
  }
  const std::string_view payload =
      std::string_view(*blob).substr(magic_.size() + kFrameLengthFields);
  SerialReader reader(payload);
  std::string stored_key;
  if (!reader.read_string(stored_key)) return corrupt("malformed key");
  // A different key under the same file name is an fnv1a collision: the
  // file is healthy and belongs to someone else.
  if (stored_key != key)
    return Status{StatusCode::kNotFound, file + ": key collision"};
  if (!decode(payload.substr(payload.size() - reader.remaining())))
    return corrupt("malformed payload");
  return Status::Ok();
}

Status ArtifactStore::store(
    const std::string& key,
    const std::function<Status(std::string& out)>& encode) const {
  std::string blob = open_frame(magic_);
  SerialWriter(blob).str(key);
  if (Status status = encode(blob); !status.ok()) return status;
  seal_frame(blob, magic_.size());

  std::error_code ec;
  fs::create_directories(directory_, ec);
  if (ec && !fs::is_directory(directory_))
    return {StatusCode::kIoError, directory_ + ": " + ec.message()};
  if (Status status = atomic_write_file(path(key), blob); !status.ok())
    return status;
  sweep_stale_temps(directory_);
  return Status::Ok();
}

}  // namespace xfa
