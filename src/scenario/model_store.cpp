#include "scenario/model_store.h"

#include "common/atomic_file.h"
#include "common/serial.h"

namespace xfa {
namespace {

// Format version 1 lives in the magic itself (like XFATRC3): a future
// layout bumps to XFAMDL2 and old files heal by quarantine + retrain.
constexpr char kModelMagic[] = "XFAMDL1";

}  // namespace

Result<std::string> serialize_detector(const Detector& detector) {
  std::string payload;
  SerialWriter writer(payload);
  if (Status s = detector.discretizer.save_state(writer); !s.ok()) return s;
  writer.pod(detector.threshold_match);
  writer.pod(detector.threshold_probability);
  if (Status s = detector.model.save_payload(writer); !s.ok()) return s;
  return payload;
}

Result<Detector> detector_from_payload(const std::string& payload) {
  SerialReader reader(payload);
  Detector detector;  // schema: always FeatureSchema::standard()
  if (Status s = detector.discretizer.load_state(reader); !s.ok()) return s;
  // transform() requires (and XFA_CHECKs) one cut vector per schema column;
  // a width mismatch must therefore fail the *load*, not the first score.
  if (detector.discretizer.columns() != detector.schema.size())
    return Status{StatusCode::kCorruptArtifact,
                  "detector: discretizer width disagrees with the schema"};
  if (!reader.read_pod(detector.threshold_match) ||
      !reader.read_pod(detector.threshold_probability))
    return Status{StatusCode::kCorruptArtifact,
                  "detector: truncated thresholds"};
  if (Status s = detector.model.load_payload(reader); !s.ok()) return s;
  // score_trace hands the model a matrix exactly schema-wide; a model
  // claiming wider columns would abort score_all's width contract check.
  if (detector.model.schema_width() > detector.schema.size())
    return Status{StatusCode::kCorruptArtifact,
                  "detector: model schema wider than the feature schema"};
  if (reader.remaining() != 0)
    return Status{StatusCode::kCorruptArtifact, "detector: trailing bytes"};
  return detector;
}

Status save_detector(const Detector& detector, const std::string& path) {
  Result<std::string> payload = serialize_detector(detector);
  if (!payload.ok()) return payload.status();
  return write_framed_file(path, kModelMagic, *payload);
}

Result<Detector> load_detector(const std::string& path) {
  Result<std::string> payload = read_framed_payload(path, kModelMagic);
  if (!payload.ok()) {
    if (payload.status().code() != StatusCode::kCorruptArtifact)
      return payload.status();  // kNotFound / kIoError: nothing to quarantine
    quarantine_file(path);
    return Status{StatusCode::kCorruptArtifact,
                  path + ": " + payload.status().message() +
                      " (quarantined to " + path + ".corrupt)"};
  }
  Result<Detector> detector = detector_from_payload(*payload);
  if (!detector.ok()) {
    quarantine_file(path);
    return Status{StatusCode::kCorruptArtifact,
                  path + ": " + detector.status().message() +
                      " (quarantined to " + path + ".corrupt)"};
  }
  return detector;
}

}  // namespace xfa
