// Bounds-checked binary (de)serialization primitives.
//
// Every persistent artifact in the tree — XFATRC3 trace-cache files and
// XFAMDL1 model files — serializes through SerialWriter and parses through
// SerialReader. The reader is a cursor over an in-memory buffer whose every
// read fails soft when the remaining bytes cannot satisfy it, so hostile
// counts never drive an allocation or an out-of-bounds read. Integer widths
// are fixed (sizes travel as u64) so the byte layout is identical across
// platforms with IEEE-754 doubles.
#pragma once

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace xfa {

/// Appends fixed-width fields to a growing byte buffer. Writers never fail:
/// the buffer is in memory and published atomically by the caller
/// (common/atomic_file.h) only once complete.
class SerialWriter {
 public:
  explicit SerialWriter(std::string& out) : out_(out) {}

  void bytes(const void* data, std::size_t size) {
    if (size != 0) out_.append(static_cast<const char*>(data), size);
  }

  template <typename T>
  void pod(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    bytes(&value, sizeof(T));
  }

  /// size_t travels as u64 regardless of platform width.
  void size(std::size_t value) { pod(static_cast<std::uint64_t>(value)); }

  void str(std::string_view s) {
    size(s.size());
    bytes(s.data(), s.size());
  }

  void doubles(const std::vector<double>& values) {
    size(values.size());
    bytes(values.data(), values.size() * sizeof(double));
  }

  void sizes(const std::vector<std::size_t>& values) {
    size(values.size());
    for (const std::size_t v : values) size(v);
  }

 private:
  std::string& out_;
};

/// Bounds-checked cursor over an in-memory payload. Each read returns false
/// (leaving the cursor wherever it was) instead of reading past the end.
class SerialReader {
 public:
  explicit SerialReader(std::string_view buffer) : buffer_(buffer) {}

  std::size_t remaining() const { return buffer_.size() - pos_; }

  bool read_bytes(void* out, std::size_t size) {
    if (size > remaining()) return false;
    // `out` may be a null vector::data() when size == 0; memcpy forbids it.
    if (size != 0) std::memcpy(out, buffer_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  template <typename T>
  bool read_pod(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return read_bytes(&value, sizeof(T));
  }

  /// Fails when the stored u64 does not fit std::size_t on this platform.
  bool read_size(std::size_t& out) {
    std::uint64_t v = 0;
    if (!read_pod(v)) return false;
    if constexpr (sizeof(std::size_t) < sizeof(std::uint64_t)) {
      if (v > static_cast<std::uint64_t>(SIZE_MAX)) return false;
    }
    out = static_cast<std::size_t>(v);
    return true;
  }

  bool read_string(std::string& out) {
    std::size_t size = 0;
    if (!read_size(size) || size > remaining()) return false;
    out.assign(buffer_.data() + pos_, size);
    pos_ += size;
    return true;
  }

  bool read_doubles(std::vector<double>& out) {
    std::size_t count = 0;
    if (!read_size(count)) return false;
    if (count > remaining() / sizeof(double)) return false;
    out.resize(count);
    return read_bytes(out.data(), count * sizeof(double));
  }

  bool read_sizes(std::vector<std::size_t>& out) {
    std::size_t count = 0;
    if (!read_size(count)) return false;
    if (count > remaining() / sizeof(std::uint64_t)) return false;
    out.resize(count);
    for (std::size_t& v : out)
      if (!read_size(v)) return false;
    return true;
  }

 private:
  std::string_view buffer_;
  std::size_t pos_ = 0;
};

}  // namespace xfa
