// Element-graph scenario architecture (Click-inspired; ROADMAP item 2):
// a simulated world is composed from declared *elements* — routing agents,
// transport sources, attack scripts, fault plans, the audit monitor — each a
// named instance of a registered type with typed parameters. Scenarios
// become data (examples/scenarios/*.scn) instead of runner C++.
#pragma once

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/status.h"
#include "sim/types.h"

namespace xfa {

/// What an element contributes to the simulated world. Every registered
/// element type declares exactly one role; a valid scenario graph has
/// exactly one routing and one transport element, at most one fault plan
/// and at most one monitor, and any number of attacks.
enum class ElementRole : std::uint8_t {
  Routing,
  Transport,
  Attack,
  Fault,
  Monitor,
};

const char* to_string(ElementRole role);

/// Parameter value syntax; drives validation and the generated docs.
enum class ParamKind : std::uint8_t {
  Int,       // unsigned integer (seeds, counts)
  Double,    // floating point (times, rates, probabilities)
  Bool,      // true | false
  Node,      // node id, or "auto" for a deterministic traffic-aware pick
  Mode,      // drop mode name: constant | random | selective
  Sessions,  // explicit session list: "start:len,start:len,..."
};

/// One declared parameter of an element type. `min`/`max` bound the numeric
/// kinds (inclusive); Bool/Node/Mode/Sessions ignore them.
struct ParamInfo {
  std::string_view name;
  ParamKind kind = ParamKind::Double;
  double min = 0.0;
  double max = 1e18;
  std::string_view doc;
};

/// One element instance in a parsed scenario: a registered type name, an
/// instance name (unique within the scenario; defaults to the type) and the
/// parameter assignments in file order.
struct ElementSpec {
  std::string type;
  std::string name;
  std::vector<std::pair<std::string, std::string>> params;

  /// Last assignment wins, mirroring key/value file semantics.
  const std::string* find(std::string_view key) const;
};

/// Shared value parsers, used by both the scenario parser and the element
/// lowering hooks (integers use parse_u64 from common/parse.h). All
/// report malformed input via Status (never abort): parser errors must
/// surface to the operator who wrote the file.
Result<double> parse_param_double(std::string_view text);
Result<bool> parse_param_bool(std::string_view text);
Result<NodeId> parse_param_node(std::string_view text);  // "auto" allowed
Result<int> parse_param_mode(std::string_view text);     // DropMode ordinal
Result<std::vector<std::pair<SimTime, SimTime>>> parse_param_sessions(
    std::string_view text);

/// Validates one assignment against its declaration (syntax + range).
Status check_param_value(const ParamInfo& info, const std::string& value);

}  // namespace xfa
