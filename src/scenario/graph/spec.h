// ScenarioSpec: the element graph a parsed scenario file yields, and its
// one-way lowering onto the ScenarioConfig the runner executes. The lowered
// config is the runtime scenario type, so a scenario file shares the trace
// cache with a registered plan whenever both lower to the same config (the
// cache key is the config's key).
#pragma once

#include <vector>

#include "common/status.h"
#include "scenario/config.h"
#include "scenario/graph/element.h"

namespace xfa {

/// A parsed scenario: top-level settings (everything in ScenarioConfig that
/// is not an element: sim timing, seeds, mobility, channel, traffic) plus
/// the ordered element list. `base.attacks` stays empty and `base.routing`,
/// `base.transport`, `base.monitor_node` and `base.faults` are placeholders
/// — those exist only as elements.
struct ScenarioSpec {
  ScenarioConfig base;
  std::vector<ElementSpec> elements;
};

/// Validates the graph (known element types and parameters, unique instance
/// names, role arities: exactly one routing and one transport, at most one
/// fault plan and one monitor, values in range) and lowers it onto the
/// canonical ScenarioConfig. Every failure is an actionable Status; this
/// path never aborts.
Result<ScenarioConfig> lower_spec(const ScenarioSpec& spec);

}  // namespace xfa
