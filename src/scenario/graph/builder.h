// The element-graph builder: wires a validated ScenarioConfig into the live
// per-node stacks (nodes, routing agents, transport flows, attack scripts,
// fault injector, audit monitor) by dispatching through the element
// registry. Construction order fixes each element's RNG stream, so it is
// part of every trace's bytes.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "audit/audit.h"
#include "faults/injector.h"
#include "net/channel.h"
#include "net/node.h"
#include "scenario/config.h"
#include "sim/simulator.h"
#include "transport/traffic.h"

namespace xfa {

/// The live world built from a config's element graph. Heap-allocated so
/// every address handed out during construction (the audit sink attached to
/// the monitor node, nodes referenced by transports and attacks) stays
/// stable for the world's lifetime.
struct BuiltScenario {
  /// Type-erased owner of one constructed transport/attack instance; keeps
  /// registry hooks free to instantiate any component type.
  struct Instance {
    virtual ~Instance() = default;
  };

  std::unique_ptr<FaultInjector> injector;
  std::vector<std::unique_ptr<Node>> nodes;
  AuditLog monitor_audit;
  std::vector<Flow> flows;
  /// Transport agents and attack scripts, in construction order.
  std::vector<std::unique_ptr<Instance>> instances;

  Node& monitor(const ScenarioConfig& config) {
    return *nodes[static_cast<std::size_t>(config.monitor_node)];
  }
};

/// Handed to registry make_* hooks while the world is being wired.
struct BuildContext {
  const ScenarioConfig& config;
  Simulator& sim;
  BuiltScenario& world;

  Node& node(NodeId id) const {
    return *world.nodes[static_cast<std::size_t>(id)];
  }

  /// Constructs a component inside the world and returns a stable reference.
  template <typename T, typename... Args>
  T& emplace(Args&&... args) {
    auto holder = std::make_unique<Holder<T>>(std::forward<Args>(args)...);
    T& ref = holder->value;
    world.instances.push_back(std::move(holder));
    return ref;
  }

  /// Resolves an "auto" victim destination: the destination of the first
  /// generated flow that is not the attacker, so the attack intersects
  /// traffic. Deterministic given the traffic seed.
  NodeId resolve_target_dst(NodeId attacker) const;

  /// Resolves an "auto" impersonation victim: the source of the first
  /// generated flow that is not the attacker (never the attacker itself).
  NodeId resolve_victim_src(NodeId attacker) const;

 private:
  template <typename T>
  struct Holder final : BuiltScenario::Instance {
    template <typename... Args>
    explicit Holder(Args&&... args) : value(std::forward<Args>(args)...) {}
    T value;
  };
};

/// Builds the world for `config` on `sim`/`channel`: fault injector, nodes
/// with routing agents, audit monitor, routing start, generated flows with
/// transport pairs, then attack scripts — the exact order (and RNG fork
/// sequence) the historical runner used.
std::unique_ptr<BuiltScenario> build_scenario(const ScenarioConfig& config,
                                              Simulator& sim,
                                              Channel& channel);

}  // namespace xfa
