// Recoverable-error taxonomy: Status and Result<T>.
//
// XFA_CHECK (common/check.h) is for contract violations — programmer errors
// that have no meaningful recovery. Environmental failures (a corrupt cache
// artifact, a degenerate training column produced by benign network faults,
// a filesystem hiccup) are *expected* at production scale and must propagate
// instead of aborting the process. Functions on such paths return a Status
// (or a Result<T> carrying either the value or the Status) and the caller
// decides: regenerate, skip the sub-model, or surface the error.
//
//   Status s = cache.store(key, result);
//   if (!s.ok()) log(s.to_string());
//
//   Result<ScenarioResult> r = run_scenario_checked(config);
//   if (!r.ok()) return r.status();
//   use(*r);
#pragma once

#include <string>
#include <utility>

#include "common/check.h"

namespace xfa {

enum class StatusCode : std::uint8_t {
  kOk = 0,
  /// The requested artifact does not exist (e.g. trace-cache miss). Not a
  /// failure — the caller is expected to produce the artifact itself.
  kNotFound,
  /// A stored artifact failed validation (bad magic, checksum mismatch,
  /// hostile length field). The loader quarantines the file; the caller
  /// regenerates.
  kCorruptArtifact,
  /// Data is structurally valid but unusable: an empty trace, a constant
  /// feature column, a monitor node that observed nothing.
  kDegenerateData,
  /// No usable model came out of training (e.g. every sub-model skipped).
  kTrainFailed,
  /// Transient failure, or work that never ran (a task cancelled before it
  /// started); asking again may succeed.
  kRetryable,
  /// Filesystem/stream error while reading or writing an artifact.
  kIoError,
  /// The caller passed arguments that cannot be acted on.
  kInvalidArgument,
  /// A task exceeded its soft wall-clock deadline and was cooperatively
  /// cancelled (src/exec/deadline.h). Its partial results are discarded; a
  /// run with a larger budget may succeed.
  kDeadlineExceeded,
};

const char* to_string(StatusCode code);

/// A status code plus a human-readable message. Cheap to copy when ok (the
/// common case carries no message).
class Status {
 public:
  /// Ok status.
  Status() = default;

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "kCorruptArtifact: trace payload checksum mismatch" (or "kOk").
  std::string to_string() const;

 private:
  StatusCode code_ = StatusCode::kOk;
  std::string message_;
};

/// Either a T or a non-ok Status explaining why there is no T.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : value_(std::move(value)) {}  // NOLINT(google-explicit-constructor)

  Result(Status status) : status_(std::move(status)) {  // NOLINT(google-explicit-constructor)
    XFA_CHECK(!status_.ok()) << "Result constructed from an ok Status";
  }

  bool ok() const { return status_.ok(); }
  /// optional-compatible spelling of ok().
  bool has_value() const { return ok(); }

  const Status& status() const { return status_; }

  /// Aborts (XFA_CHECK) with the status message when !ok(). Ref-qualified
  /// like std::optional: on an rvalue the value is moved out and returned
  /// by value, so `f().value()` never copies and a reference bound to it
  /// never dangles.
  T& value() & {
    XFA_CHECK(ok()) << status_.to_string();
    return value_;
  }
  const T& value() const& {
    XFA_CHECK(ok()) << status_.to_string();
    return value_;
  }
  T value() && {
    XFA_CHECK(ok()) << status_.to_string();
    return std::move(value_);
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T operator*() && { return std::move(*this).value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  T value_;  // default-initialized; only readable when ok()
  Status status_;
};

}  // namespace xfa
