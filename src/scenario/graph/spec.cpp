#include "scenario/graph/spec.h"

#include <set>
#include <string>
#include <utility>

#include "scenario/graph/registry.h"

namespace xfa {
namespace {

std::string known_element_types() {
  std::string names;
  for (const ElementDef& def : element_registry()) {
    if (!names.empty()) names += ", ";
    names += std::string(def.type);
  }
  return names;
}

std::string known_params(const ElementDef& def) {
  std::string names;
  for (const ParamInfo& info : def.params) {
    if (!names.empty()) names += ", ";
    names += std::string(info.name);
  }
  return names.empty() ? "(none)" : names;
}

Status invalid(std::string message) {
  return {StatusCode::kInvalidArgument, std::move(message)};
}

Status check_node_in_range(const char* what, NodeId node,
                           std::size_t node_count, bool allow_auto) {
  if (allow_auto && node == kInvalidNode) return Status::Ok();
  if (node < 0 || static_cast<std::size_t>(node) >= node_count) {
    return invalid(std::string(what) + " node " + std::to_string(node) +
                   " out of range [0, " + std::to_string(node_count) + ")");
  }
  return Status::Ok();
}

}  // namespace

Result<ScenarioConfig> lower_spec(const ScenarioSpec& spec) {
  ScenarioConfig config = spec.base;
  config.attacks.clear();
  // Neutral (disabled) fault plan: a scenario without a faults element must
  // lower to a config with no chaos regardless of what the base carried.
  config.faults = FaultPlan{};

  std::size_t routing_count = 0;
  std::size_t transport_count = 0;
  std::size_t fault_count = 0;
  std::size_t monitor_count = 0;
  std::set<std::string> names;
  for (const ElementSpec& elem : spec.elements) {
    const ElementDef* def = find_element(elem.type);
    if (def == nullptr) {
      return invalid("unknown element type '" + elem.type +
                     "' (registered: " + known_element_types() + ")");
    }
    const std::string& name = elem.name.empty() ? elem.type : elem.name;
    if (!names.insert(name).second) {
      return invalid("duplicate element name '" + name +
                     "' (give repeated element types distinct names)");
    }
    for (const auto& [key, value] : elem.params) {
      const ParamInfo* info = nullptr;
      for (const ParamInfo& candidate : def->params)
        if (candidate.name == key) info = &candidate;
      if (info == nullptr) {
        return invalid("element '" + name + "' (" + elem.type +
                       "): unknown parameter '" + key +
                       "' (accepted: " + known_params(*def) + ")");
      }
      if (Status status = check_param_value(*info, value); !status.ok()) {
        return invalid("element '" + name + "': " + status.message());
      }
    }
    switch (def->role) {
      case ElementRole::Routing: ++routing_count; break;
      case ElementRole::Transport: ++transport_count; break;
      case ElementRole::Fault: ++fault_count; break;
      case ElementRole::Monitor: ++monitor_count; break;
      case ElementRole::Attack: break;
    }
    if (Status status = def->lower(elem, config); !status.ok()) return status;
  }

  if (routing_count != 1) {
    return invalid("a scenario needs exactly one routing element "
                   "(aodv or dsr); found " +
                   std::to_string(routing_count));
  }
  if (transport_count != 1) {
    return invalid("a scenario needs exactly one transport element "
                   "(cbr or tcp); found " +
                   std::to_string(transport_count));
  }
  if (fault_count > 1)
    return invalid("at most one faults element is allowed");
  if (monitor_count > 1)
    return invalid("at most one monitor element is allowed");

  if (config.node_count < 2) return invalid("nodes must be >= 2");
  if (config.duration <= 0) return invalid("duration must be > 0");
  if (config.sample_interval <= 0 ||
      config.sample_interval > config.duration) {
    return invalid("sample-interval must be in (0, duration]");
  }
  if (Status status = check_node_in_range("monitor", config.monitor_node,
                                          config.node_count, false);
      !status.ok()) {
    return status;
  }
  for (const AttackSpec& attack : config.attacks) {
    if (Status status = check_node_in_range("attacker", attack.attacker,
                                            config.node_count, false);
        !status.ok()) {
      return status;
    }
    if (Status status = check_node_in_range("target", attack.drop_target,
                                            config.node_count, true);
        !status.ok()) {
      return status;
    }
    if (Status status = check_node_in_range("victim", attack.victim,
                                            config.node_count, true);
        !status.ok()) {
      return status;
    }
  }
  return config;
}

}  // namespace xfa
