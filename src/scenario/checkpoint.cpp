#include "scenario/checkpoint.h"

#include <csignal>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "common/crc64.h"
#include "common/env.h"
#include "common/serial.h"
#include "scenario/model_store.h"

namespace xfa {
namespace {

/// Unit-file magic and extension; version bumps get a new literal
/// (XFACKP2, ...).
constexpr char kUnitMagic[] = "XFACKP1";
constexpr char kUnitExtension[] = ".ckpt";

std::string hex16(std::uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof buffer, "%016llx",
                static_cast<unsigned long long>(value));
  return buffer;
}

}  // namespace

CheckpointStore::CheckpointStore() : store_({}, kUnitMagic, kUnitExtension) {}

Status CheckpointStore::open(const std::string& directory, bool resume) {
  std::error_code ec;
  std::filesystem::create_directories(directory, ec);
  if (!std::filesystem::is_directory(directory, ec))
    return {StatusCode::kIoError, directory + ": cannot create directory"};
  store_ = ArtifactStore(directory, kUnitMagic, kUnitExtension);
  stores_ = 0;
  crash_after_ = env().crash_after_units;
  if (!resume) store_.clear();
  return Status::Ok();
}

bool CheckpointStore::lookup(const std::string& key,
                             std::string& payload) const {
  return store_
      .load(key,
            [&payload](std::string_view body) {
              payload.assign(body);
              return true;
            })
      .ok();
}

Status CheckpointStore::append(const std::string& key,
                               std::string_view payload) {
  if (Status status = store_.store(key,
                                   [payload](std::string& out) {
                                     out.append(payload);
                                     return Status::Ok();
                                   });
      !status.ok())
    return status;
  // Crash-injection hook for the resume tests: the Nth unit is durable
  // (store() fsync'd it) and the process dies before doing anything else.
  if (crash_after_ > 0 && stores_.fetch_add(1) + 1 >= crash_after_)
    std::raise(SIGKILL);
  return Status::Ok();
}

namespace {

CheckpointStore*& store_slot() {
  static CheckpointStore* installed = nullptr;
  return installed;
}

/// Serializes the parts of a trace that determine training/scoring output.
void append_trace_bytes(SerialWriter& writer, const RawTrace& trace) {
  writer.doubles(trace.times);
  writer.size(trace.rows.size());
  writer.size(trace.rows.empty() ? 0 : trace.rows.front().size());
  for (const std::vector<double>& row : trace.rows)
    writer.bytes(row.data(), row.size() * sizeof(double));
  for (const int label : trace.labels)
    writer.pod(static_cast<std::int32_t>(label));
}

/// Content-addressed unit key for a trained detector: a hash over the
/// training inputs (traces, classifier name, every option that changes the
/// result — threads deliberately excluded, it only changes wall-clock).
std::string detector_unit_key(const RawTrace& train_normal,
                              const ClassifierFactory& factory,
                              const DetectorOptions& options,
                              const RawTrace* threshold_normal) {
  std::string bytes;
  SerialWriter writer(bytes);
  writer.str(factory()->name());
  writer.pod(static_cast<std::int32_t>(options.buckets));
  writer.pod(options.min_relative_gap);
  writer.pod(options.false_alarm_rate);
  writer.doubles(options.periods);
  // Feature selection changes the trained model, so it is keyed — but only
  // when active, keeping every pre-selection cached artifact valid (same
  // only-when-non-default idiom the periods ablation established).
  if (options.selection.active()) {
    writer.pod(static_cast<std::uint8_t>(options.selection.ranker));
    writer.size(options.selection.top_k);
    writer.pod(options.selection.min_score);
    writer.pod(options.selection.holdout_fraction);
    writer.size(options.selection.max_rank_rows);
  }
  append_trace_bytes(writer, train_normal);
  writer.pod(static_cast<std::uint8_t>(threshold_normal != nullptr));
  if (threshold_normal != nullptr) append_trace_bytes(writer, *threshold_normal);
  return "model/" + hex16(crc64(bytes.data(), bytes.size()));
}

std::string score_unit_key(const std::string& detector_key,
                           const RawTrace& trace) {
  std::string bytes;
  SerialWriter writer(bytes);
  append_trace_bytes(writer, trace);
  return "scores/" + detector_key + "/" +
         hex16(crc64(bytes.data(), bytes.size()));
}

void append_scores_payload(std::string& out,
                           const std::vector<EventScore>& scores) {
  SerialWriter writer(out);
  writer.size(scores.size());
  for (const EventScore& score : scores) {
    writer.pod(score.avg_match_count);
    writer.pod(score.avg_probability);
  }
}

bool parse_scores_payload(const std::string& payload,
                          std::vector<EventScore>& scores) {
  SerialReader reader(payload);
  std::size_t count = 0;
  if (!reader.read_size(count)) return false;
  if (count > reader.remaining() / (2 * sizeof(double))) return false;
  scores.resize(count);
  for (EventScore& score : scores) {
    if (!reader.read_pod(score.avg_match_count) ||
        !reader.read_pod(score.avg_probability)) {
      return false;
    }
  }
  return reader.remaining() == 0;
}

}  // namespace

void install_checkpoint_store(CheckpointStore* store) {
  store_slot() = store;
}

CheckpointStore* checkpoint_store() { return store_slot(); }

Result<CheckpointedDetector> train_detector_checkpointed(
    const RawTrace& train_normal, const ClassifierFactory& factory,
    const DetectorOptions& options, const RawTrace* threshold_normal) {
  CheckpointStore* checkpoint = checkpoint_store();
  std::string key;
  if (checkpoint != nullptr) {
    key = detector_unit_key(train_normal, factory, options, threshold_normal);
    std::string payload;
    if (checkpoint->lookup(key, payload)) {
      if (Result<Detector> loaded = detector_from_payload(payload);
          loaded.ok()) {
        return CheckpointedDetector{std::move(*loaded), key};
      }
      // A structurally-invalid stored detector (the frame's CRC held, the
      // semantics did not): ignore and retrain; the fresh store below
      // replaces the bad unit.
    }
  }
  Result<Detector> trained =
      train_detector_checked(train_normal, factory, options, threshold_normal);
  if (!trained.ok()) return trained.status();
  if (checkpoint != nullptr) {
    if (Result<std::string> payload = serialize_detector(*trained);
        payload.ok()) {
      (void)checkpoint->append(key, *payload);  // best-effort: a failed
                                                // store only costs resume
                                                // coverage
    }
  }
  return CheckpointedDetector{std::move(*trained), key};
}

std::vector<EventScore> score_trace_checkpointed(
    const Detector& detector, const std::string& detector_key,
    const RawTrace& trace) {
  CheckpointStore* checkpoint = checkpoint_store();
  std::string key;
  if (checkpoint != nullptr) {
    key = score_unit_key(detector_key, trace);
    std::string payload;
    if (checkpoint->lookup(key, payload)) {
      std::vector<EventScore> scores;
      if (parse_scores_payload(payload, scores)) return scores;
    }
  }
  std::vector<EventScore> scores = detector.score_trace(trace);
  if (checkpoint != nullptr) {
    std::string payload;
    append_scores_payload(payload, scores);
    (void)checkpoint->append(key, payload);
  }
  return scores;
}

}  // namespace xfa
