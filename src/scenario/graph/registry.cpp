#include "scenario/graph/registry.h"

#include <utility>

#include "attacks/blackhole.h"
#include "attacks/drop_variants.h"
#include "attacks/dropper.h"
#include "attacks/impersonation.h"
#include "attacks/storm.h"
#include "common/check.h"
#include "common/parse.h"
#include "routing/aodv/aodv.h"
#include "routing/dsr/dsr.h"
#include "scenario/graph/builder.h"
#include "transport/cbr.h"
#include "transport/tcp.h"

namespace xfa {
namespace {

// --- Pre-validated parameter access ----------------------------------------
// lower() hooks run after spec validation checked every assignment against
// the ParamInfo table, so these extractors may assume the text parses.

double num_param(const ElementSpec& elem, std::string_view key,
                 double fallback) {
  const std::string* value = elem.find(key);
  return value == nullptr ? fallback : *parse_param_double(*value);
}

std::uint64_t u64_param(const ElementSpec& elem, std::string_view key,
                        std::uint64_t fallback) {
  const std::string* value = elem.find(key);
  return value == nullptr ? fallback : *parse_u64(*value);
}

bool bool_param(const ElementSpec& elem, std::string_view key, bool fallback) {
  const std::string* value = elem.find(key);
  return value == nullptr ? fallback : *parse_param_bool(*value);
}

NodeId node_param(const ElementSpec& elem, std::string_view key,
                  NodeId fallback) {
  const std::string* value = elem.find(key);
  return value == nullptr ? fallback : *parse_param_node(*value);
}

/// Shared on-off schedule parameters every attack element accepts.
std::vector<ParamInfo> with_schedule(std::vector<ParamInfo> params) {
  params.push_back({"start", ParamKind::Double, 0, 1e9,
                    "periodic schedule: first onset time (s)"});
  params.push_back({"session", ParamKind::Double, 1e-3, 1e9,
                    "periodic schedule: session length == gap length (s)"});
  params.push_back({"sessions", ParamKind::Sessions, 0, 0,
                    "explicit session list start:len,start:len,..."});
  return params;
}

Status lower_schedule(const ElementSpec& elem, ScheduleSpec& schedule) {
  const std::string* sessions = elem.find("sessions");
  if (sessions != nullptr) {
    if (elem.find("start") != nullptr || elem.find("session") != nullptr) {
      return {StatusCode::kInvalidArgument,
              "element '" + elem.name +
                  "': 'sessions' excludes 'start'/'session'"};
    }
    schedule = ScheduleSpec::session_list(*parse_param_sessions(*sessions));
    return Status::Ok();
  }
  schedule = ScheduleSpec::periodic_from(num_param(elem, "start", 2500),
                                         num_param(elem, "session", 200));
  return Status::Ok();
}

/// Lowers the parameters shared by every attack element, then appends the
/// spec to the config. Kind-specific fields are set by the caller first.
Status lower_attack(const ElementSpec& elem, AttackSpec spec,
                    ScenarioConfig& config) {
  spec.attacker = node_param(elem, "attacker", spec.attacker);
  if (spec.attacker == kInvalidNode) {
    return {StatusCode::kInvalidArgument,
            "element '" + elem.name + "': 'attacker' cannot be auto"};
  }
  if (Status status = lower_schedule(elem, spec.schedule); !status.ok())
    return status;
  config.attacks.push_back(std::move(spec));
  return Status::Ok();
}

// --- Element definitions ----------------------------------------------------

ElementDef aodv_element() {
  ElementDef def;
  def.type = "aodv";
  def.role = ElementRole::Routing;
  def.doc = "AODV routing agent on every node";
  def.lower = [](const ElementSpec&, ScenarioConfig& config) {
    config.routing = RoutingKind::Aodv;
    return Status::Ok();
  };
  def.make_routing = [](Node& node) -> std::unique_ptr<RoutingProtocol> {
    return std::make_unique<Aodv>(node);
  };
  return def;
}

ElementDef dsr_element() {
  ElementDef def;
  def.type = "dsr";
  def.role = ElementRole::Routing;
  def.doc = "DSR routing agent on every node (consumes promiscuous taps)";
  def.promiscuous = true;
  def.lower = [](const ElementSpec&, ScenarioConfig& config) {
    config.routing = RoutingKind::Dsr;
    return Status::Ok();
  };
  def.make_routing = [](Node& node) -> std::unique_ptr<RoutingProtocol> {
    return std::make_unique<Dsr>(node);
  };
  return def;
}

ElementDef cbr_element() {
  ElementDef def;
  def.type = "cbr";
  def.role = ElementRole::Transport;
  def.doc = "CBR-over-UDP source/sink pair per generated flow";
  def.lower = [](const ElementSpec&, ScenarioConfig& config) {
    config.transport = TransportKind::Udp;
    return Status::Ok();
  };
  def.make_flow = [](BuildContext& ctx, const Flow& flow) {
    Node& src = ctx.node(flow.src);
    Node& dst = ctx.node(flow.dst);
    ctx.emplace<CbrSink>(dst, flow.flow_id);
    ctx.emplace<CbrSource>(src, flow.dst, flow.flow_id,
                           ctx.config.traffic.rate_pps,
                           ctx.config.traffic.packet_bytes, flow.start,
                           ctx.config.duration);
  };
  return def;
}

ElementDef tcp_element() {
  ElementDef def;
  def.type = "tcp";
  def.role = ElementRole::Transport;
  def.doc = "TCP source/sink pair per generated flow";
  def.lower = [](const ElementSpec&, ScenarioConfig& config) {
    config.transport = TransportKind::Tcp;
    return Status::Ok();
  };
  def.make_flow = [](BuildContext& ctx, const Flow& flow) {
    Node& src = ctx.node(flow.src);
    Node& dst = ctx.node(flow.dst);
    TcpConfig tcp_config;
    tcp_config.segment_bytes = ctx.config.traffic.packet_bytes;
    tcp_config.app_rate_pps = ctx.config.traffic.rate_pps;
    ctx.emplace<TcpSink>(dst, flow.flow_id, flow.src, tcp_config);
    ctx.emplace<TcpSource>(src, flow.dst, flow.flow_id, flow.start,
                           tcp_config);
  };
  return def;
}

ElementDef monitor_element() {
  ElementDef def;
  def.type = "monitor";
  def.role = ElementRole::Monitor;
  def.doc = "audit-collecting node (the paper's single monitored node)";
  def.params = {{"node", ParamKind::Int, 0, 100000,
                 "node id whose audit log feeds feature extraction"}};
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    config.monitor_node =
        static_cast<NodeId>(u64_param(elem, "node", 0));
    return Status::Ok();
  };
  return def;
}

ElementDef faults_element() {
  ElementDef def;
  def.type = "faults";
  def.role = ElementRole::Fault;
  def.doc = "benign network chaos plan (faults/plan.h)";
  def.params = {
      {"corruption-rate", ParamKind::Double, 0, 1,
       "per-delivery frame corruption probability"},
      {"duplication-rate", ParamKind::Double, 0, 1,
       "per-delivery data duplication probability"},
      {"reorder-jitter", ParamKind::Double, 0, 10,
       "extra uniform per-delivery delay bound (s)"},
      {"loss-burst-rate", ParamKind::Double, 0, 10,
       "mean interference bursts per second"},
      {"loss-burst-duration", ParamKind::Double, 0, 1e6,
       "length of one loss burst (s)"},
      {"loss-burst-loss-rate", ParamKind::Double, 0, 1,
       "extra loss probability while a burst is on"},
      {"link-flap-rate", ParamKind::Double, 0, 10,
       "mean link flaps per second"},
      {"link-flap-down", ParamKind::Double, 0, 1e6,
       "flapped link downtime (s)"},
      {"node-crash-rate", ParamKind::Double, 0, 10,
       "mean node crashes per second"},
      {"node-crash-down", ParamKind::Double, 0, 1e6,
       "crashed node downtime (s)"},
      // Max covers the full uint64 range: every FaultPlan::fault_seed a
      // config can carry is expressible in a scenario file.
      {"seed", ParamKind::Int, 0, 2e19, "dedicated fault-stream seed"},
  };
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    FaultPlan& plan = config.faults;
    plan.corruption_rate = num_param(elem, "corruption-rate", 0);
    plan.duplication_rate = num_param(elem, "duplication-rate", 0);
    plan.reorder_jitter_s = num_param(elem, "reorder-jitter", 0);
    plan.loss_burst_rate_per_s = num_param(elem, "loss-burst-rate", 0);
    plan.loss_burst_duration_s = num_param(elem, "loss-burst-duration", 0);
    plan.loss_burst_loss_rate = num_param(elem, "loss-burst-loss-rate", 0.8);
    plan.link_flap_rate_per_s = num_param(elem, "link-flap-rate", 0);
    plan.link_flap_down_s = num_param(elem, "link-flap-down", 0);
    plan.node_crash_rate_per_s = num_param(elem, "node-crash-rate", 0);
    plan.node_crash_down_s = num_param(elem, "node-crash-down", 0);
    plan.fault_seed = u64_param(elem, "seed", 1337);
    if (!plan.enabled()) {
      return Status{StatusCode::kInvalidArgument,
                    "element '" + elem.name +
                        "': fault plan enables no mechanism (set at least "
                        "one non-zero rate)"};
    }
    return Status::Ok();
  };
  return def;
}

ElementDef blackhole_element() {
  ElementDef def;
  def.type = "blackhole";
  def.role = ElementRole::Attack;
  def.doc = "route-logic black hole: advertise phantom routes, swallow data";
  def.params = with_schedule(
      {{"attacker", ParamKind::Node, 0, 100000, "compromised node id"}});
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    AttackSpec spec;
    spec.kind = AttackKind::Blackhole;
    return lower_attack(elem, std::move(spec), config);
  };
  def.make_attack = [](BuildContext& ctx, const AttackSpec& spec) {
    auto& attack = ctx.emplace<BlackholeAttack>(ctx.node(spec.attacker),
                                                spec.schedule.build());
    attack.start();
  };
  return def;
}

ElementDef selective_drop_element() {
  ElementDef def;
  def.type = "selective-drop";
  def.role = ElementRole::Attack;
  def.doc = "drop data destined to one victim destination";
  def.params = with_schedule(
      {{"attacker", ParamKind::Node, 0, 100000, "compromised node id"},
       {"target", ParamKind::Node, 0, 100000,
        "victim destination; 'auto' picks a trafficked one"}});
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    AttackSpec spec;
    spec.kind = AttackKind::SelectiveDrop;
    spec.drop_target = node_param(elem, "target", kInvalidNode);
    return lower_attack(elem, std::move(spec), config);
  };
  def.make_attack = [](BuildContext& ctx, const AttackSpec& spec) {
    const NodeId target = spec.drop_target != kInvalidNode
                              ? spec.drop_target
                              : ctx.resolve_target_dst(spec.attacker);
    auto& attack = ctx.emplace<SelectiveDropAttack>(
        ctx.node(spec.attacker), target, spec.schedule.build());
    attack.start();
  };
  return def;
}

ElementDef update_storm_element() {
  ElementDef def;
  def.type = "update-storm";
  def.role = ElementRole::Attack;
  def.doc = "flood meaningless route discoveries (route-logic §2.3)";
  def.params = with_schedule(
      {{"attacker", ParamKind::Node, 0, 100000, "compromised node id"}});
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    AttackSpec spec;
    spec.kind = AttackKind::UpdateStorm;
    return lower_attack(elem, std::move(spec), config);
  };
  def.make_attack = [](BuildContext& ctx, const AttackSpec& spec) {
    auto& attack = ctx.emplace<UpdateStormAttack>(ctx.node(spec.attacker),
                                                  spec.schedule.build());
    attack.start();
  };
  return def;
}

ElementDef drop_element() {
  ElementDef def;
  def.type = "drop";
  def.role = ElementRole::Attack;
  def.doc = "dropping-family attack with a mode (constant|random|selective)";
  def.params = with_schedule(
      {{"attacker", ParamKind::Node, 0, 100000, "compromised node id"},
       {"mode", ParamKind::Mode, 0, 0,
        "dropper behaviour; 'random' uses 'probability', 'selective' uses "
        "'target'"},
       {"probability", ParamKind::Double, 0, 1,
        "random-mode drop probability"},
       {"target", ParamKind::Node, 0, 100000,
        "selective-mode victim destination; 'auto' picks a trafficked one"},
       {"data-only", ParamKind::Bool, 0, 0,
        "drop only data packets (default true)"}});
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    AttackSpec spec;
    spec.kind = AttackKind::RandomDrop;
    const std::string* mode = elem.find("mode");
    spec.drop_mode = mode == nullptr
                         ? DropMode::Random
                         : static_cast<DropMode>(*parse_param_mode(*mode));
    spec.drop_probability = num_param(elem, "probability", 0.5);
    spec.drop_target = node_param(elem, "target", kInvalidNode);
    spec.drop_data_only = bool_param(elem, "data-only", true);
    return lower_attack(elem, std::move(spec), config);
  };
  def.make_attack = [](BuildContext& ctx, const AttackSpec& spec) {
    DropSpec drop_spec;
    drop_spec.mode = spec.drop_mode;
    drop_spec.probability = spec.drop_probability;
    drop_spec.data_only = spec.drop_data_only;
    if (spec.drop_mode == DropMode::Selective) {
      drop_spec.target_dst = spec.drop_target != kInvalidNode
                                 ? spec.drop_target
                                 : ctx.resolve_target_dst(spec.attacker);
    }
    auto& attack = ctx.emplace<DropAttack>(ctx.node(spec.attacker), drop_spec,
                                           spec.schedule.build());
    attack.start();
  };
  return def;
}

ElementDef impersonation_element() {
  ElementDef def;
  def.type = "impersonation";
  def.role = ElementRole::Attack;
  def.doc = "originate data forged in a victim's name (masquerading §2.3)";
  def.params = with_schedule(
      {{"attacker", ParamKind::Node, 0, 100000, "compromised node id"},
       {"victim", ParamKind::Node, 0, 100000,
        "whose identity is forged; 'auto' picks a traffic source"},
       {"target", ParamKind::Node, 0, 100000,
        "where forged packets are sent; 'auto' picks a trafficked "
        "destination"},
       {"rate-pps", ParamKind::Double, 1e-6, 1e6,
        "forged packets per second while a session is active"}});
  def.lower = [](const ElementSpec& elem, ScenarioConfig& config) {
    AttackSpec spec;
    spec.kind = AttackKind::Impersonation;
    spec.victim = node_param(elem, "victim", kInvalidNode);
    spec.drop_target = node_param(elem, "target", kInvalidNode);
    spec.forge_rate_pps = num_param(elem, "rate-pps", 1.0);
    if (spec.victim != kInvalidNode &&
        spec.victim == node_param(elem, "attacker", spec.attacker)) {
      return Status{StatusCode::kInvalidArgument,
                    "element '" + elem.name +
                        "': victim must differ from the attacker"};
    }
    return lower_attack(elem, std::move(spec), config);
  };
  def.make_attack = [](BuildContext& ctx, const AttackSpec& spec) {
    const NodeId victim = spec.victim != kInvalidNode
                              ? spec.victim
                              : ctx.resolve_victim_src(spec.attacker);
    const NodeId target = spec.drop_target != kInvalidNode
                              ? spec.drop_target
                              : ctx.resolve_target_dst(spec.attacker);
    ImpersonationConfig impersonation;
    impersonation.packets_per_second = spec.forge_rate_pps;
    auto& attack = ctx.emplace<ImpersonationAttack>(
        ctx.node(spec.attacker), victim, target, spec.schedule.build(),
        impersonation);
    attack.start();
  };
  return def;
}

std::vector<ElementDef> make_builtin_elements() {
  std::vector<ElementDef> defs;
  defs.push_back(aodv_element());
  defs.push_back(dsr_element());
  defs.push_back(cbr_element());
  defs.push_back(tcp_element());
  defs.push_back(monitor_element());
  defs.push_back(faults_element());
  defs.push_back(blackhole_element());
  defs.push_back(selective_drop_element());
  defs.push_back(update_storm_element());
  defs.push_back(drop_element());
  defs.push_back(impersonation_element());
  return defs;
}

const ElementDef& checked_find(std::string_view type) {
  const ElementDef* def = find_element(type);
  XFA_CHECK_NE(def, nullptr) << "unregistered element type " << type;
  return *def;
}

}  // namespace

const std::vector<ElementDef>& element_registry() {
  static const std::vector<ElementDef> registry = make_builtin_elements();
  return registry;
}

const ElementDef* find_element(std::string_view type) {
  for (const ElementDef& def : element_registry())
    if (def.type == type) return &def;
  return nullptr;
}

const ElementDef& element_for(RoutingKind kind) {
  return checked_find(kind == RoutingKind::Aodv ? "aodv" : "dsr");
}

const ElementDef& element_for(TransportKind kind) {
  return checked_find(kind == TransportKind::Udp ? "cbr" : "tcp");
}

const ElementDef& element_for(AttackKind kind) {
  switch (kind) {
    case AttackKind::Blackhole: return checked_find("blackhole");
    case AttackKind::SelectiveDrop: return checked_find("selective-drop");
    case AttackKind::UpdateStorm: return checked_find("update-storm");
    case AttackKind::RandomDrop: return checked_find("drop");
    case AttackKind::Impersonation: return checked_find("impersonation");
  }
  return checked_find("blackhole");
}

}  // namespace xfa
