// Serialization of a ScenarioResult body, the codec of the trace cache
// (scenario/cache.h). The key is not part of the body: the keyed artifact store
// (common/atomic_file.h ArtifactStore) writes it in front and checks it on
// load.
//
// Layout: times, row count, column count, row data (doubles), then the
// ScenarioSummary fields. Parsing is bounds-checked end to end
// (common/serial.h): hostile counts never allocate or read out of bounds.
#pragma once

#include <string>
#include <string_view>

#include "common/status.h"
#include "scenario/runner.h"

namespace xfa {

/// Appends the serialized body for `result` to `out`. kInvalidArgument when
/// the trace rows are ragged (nothing appended).
Status append_scenario_payload(std::string& out, const ScenarioResult& result);

/// Parses a body produced by append_scenario_payload. Returns false on any
/// structural failure, trailing bytes included.
bool parse_scenario_payload(std::string_view payload, ScenarioResult& result);

}  // namespace xfa
