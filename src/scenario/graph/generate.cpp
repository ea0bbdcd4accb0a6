#include "scenario/graph/generate.h"

#include <cstdint>
#include <string>
#include <string_view>

#include "sim/types.h"

namespace xfa {
namespace {

void emit(std::string& out, std::string_view key, const std::string& value) {
  out += std::string(key) + " = " + value + "\n";
}

/// Grid-aligned decimal: one fractional digit, exact in the text form.
std::string decimal(Rng& rng, int lo_tenths, int hi_tenths) {
  const int tenths =
      lo_tenths + static_cast<int>(rng.uniform_int(
                      static_cast<std::uint64_t>(hi_tenths - lo_tenths + 1)));
  return std::to_string(tenths / 10) + "." + std::to_string(tenths % 10);
}

std::string node_or_auto(Rng& rng, std::size_t node_count) {
  if (rng.chance(0.5)) return "auto";
  return std::to_string(rng.uniform_int(node_count));
}

void emit_schedule(Rng& rng, std::string& out, double duration) {
  if (rng.chance(0.5)) {
    emit(out, "start",
         std::to_string(10 + 10 * rng.uniform_int(
                                 static_cast<std::uint64_t>(duration / 20))));
    emit(out, "session", std::to_string(10 + 10 * rng.uniform_int(5)));
    return;
  }
  const std::size_t sessions = 1 + rng.uniform_int(3);
  std::string list;
  double start = 10 + 10 * static_cast<double>(rng.uniform_int(5));
  for (std::size_t i = 0; i < sessions; ++i) {
    const double len = 10 + 10 * static_cast<double>(rng.uniform_int(4));
    if (!list.empty()) list += ",";
    list += std::to_string(static_cast<int>(start)) + ":" +
            std::to_string(static_cast<int>(len));
    start += len + 10 + 10 * static_cast<double>(rng.uniform_int(4));
  }
  emit(out, "sessions", list);
}

}  // namespace

std::string random_scenario_text(Rng& rng) {
  const std::size_t node_count = 8 + rng.uniform_int(17);  // [8, 24]
  const double duration = 200 + 100 * static_cast<double>(rng.uniform_int(5));
  std::string out = "[sim]\n";
  emit(out, "nodes", std::to_string(node_count));
  emit(out, "duration", std::to_string(static_cast<int>(duration)));
  emit(out, "sample-interval", "5");
  emit(out, "seed", std::to_string(rng()));
  emit(out, "traffic-seed", std::to_string(rng()));
  emit(out, "mobility-seed", std::to_string(rng()));
  out += "\n[traffic]\n";
  emit(out, "connections", std::to_string(10 + rng.uniform_int(30)));
  emit(out, "rate-pps", "0.25");
  out += "\n[mobility]\n";
  emit(out, "max-speed", decimal(rng, 50, 250));  // [5.0, 25.0] m/s

  out += rng.chance(0.5) ? "\n[element aodv]\n" : "\n[element dsr]\n";
  out += rng.chance(0.5) ? "\n[element cbr]\n" : "\n[element tcp]\n";
  if (rng.chance(0.5)) {
    out += "\n[element monitor]\n";
    emit(out, "node", std::to_string(rng.uniform_int(node_count)));
  }
  if (rng.chance(0.3)) {
    out += "\n[element faults]\n";
    emit(out, "corruption-rate", "0." + std::to_string(rng.uniform_int(5)));
    emit(out, "duplication-rate", "0.0" + std::to_string(rng.uniform_int(9)));
    emit(out, "reorder-jitter", "0.00" + std::to_string(rng.uniform_int(9)));
    emit(out, "seed", std::to_string(rng()));
    // At least one mechanism must be armed; corruption-rate 0.0 alone would
    // lower to a disabled plan, which lower_spec rejects.
    emit(out, "loss-burst-rate", "0.01");
    emit(out, "loss-burst-duration", std::to_string(5 + rng.uniform_int(10)));
  }

  static constexpr const char* kAttackTypes[] = {
      "blackhole", "selective-drop", "update-storm", "drop", "impersonation"};
  static constexpr const char* kModes[] = {"constant", "random", "selective"};
  const std::size_t attack_count = rng.uniform_int(4);  // [0, 3]
  for (std::size_t i = 0; i < attack_count; ++i) {
    const std::string_view type = kAttackTypes[rng.uniform_int(5)];
    out += "\n[element " + std::string(type) + " " + std::string(type) + "-" +
           std::to_string(i + 1) + "]\n";
    const NodeId attacker =
        static_cast<NodeId>(1 + rng.uniform_int(node_count - 1));
    emit(out, "attacker", std::to_string(attacker));
    if (type == "selective-drop") {
      emit(out, "target", node_or_auto(rng, node_count));
    } else if (type == "drop") {
      emit(out, "mode", kModes[rng.uniform_int(3)]);
      emit(out, "probability", decimal(rng, 1, 9));
      if (rng.chance(0.3)) emit(out, "data-only", "false");
    } else if (type == "impersonation") {
      // Explicit victims must differ from the attacker; 'auto' always does.
      if (rng.chance(0.5)) {
        NodeId victim = static_cast<NodeId>(rng.uniform_int(node_count));
        if (victim == attacker)
          victim = static_cast<NodeId>((victim + 1) %
                                       static_cast<NodeId>(node_count));
        emit(out, "victim", std::to_string(victim));
      } else {
        emit(out, "victim", "auto");
      }
      emit(out, "target", node_or_auto(rng, node_count));
      emit(out, "rate-pps", decimal(rng, 5, 30));
    }
    emit_schedule(rng, out, duration);
  }
  return out;
}

}  // namespace xfa
