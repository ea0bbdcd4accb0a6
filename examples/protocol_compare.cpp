// Example: compare AODV and DSR protocol health on identical workloads.
//
// Exercises the simulation substrate without the IDS: runs the same mobility
// and traffic under both routing protocols and reports delivery ratio,
// control overhead and route-fabric churn — the kind of numbers the paper's
// [PRDM01] reference reports for these protocols.
//
// Usage: protocol_compare [duration_seconds] (default 1000)

#include <cstdio>
#include <cstdlib>

#include "scenario/runner.h"

namespace {

void run(xfa::RoutingKind routing, double duration) {
  xfa::ScenarioConfig config;
  config.routing = routing;
  config.transport = xfa::TransportKind::Udp;
  config.duration = duration;
  config.seed = 42;

  const xfa::ScenarioResult result = xfa::run_scenario_checked(config).value();
  const xfa::ScenarioSummary& s = result.summary;
  std::printf("%-5s data=%llu/%llu  PDR=%.3f  events=%llu\n",
              to_string(routing),
              static_cast<unsigned long long>(s.data_delivered),
              static_cast<unsigned long long>(s.data_originated),
              s.packet_delivery_ratio,
              static_cast<unsigned long long>(s.scheduler_events));
  std::printf(
      "      channel: tx=%llu delivered=%llu taps=%llu unicast_fail=%llu\n",
      static_cast<unsigned long long>(s.channel.transmissions),
      static_cast<unsigned long long>(s.channel.deliveries),
      static_cast<unsigned long long>(s.channel.taps),
      static_cast<unsigned long long>(s.channel.unicast_failures));
  std::printf(
      "      monitor audit: %llu packet records, %llu route events\n",
      static_cast<unsigned long long>(s.monitor_audit_packets),
      static_cast<unsigned long long>(s.monitor_audit_route_events));
  std::printf(
      "      monitor routing: discoveries %llu ok / %llu failed, "
      "fwd=%llu, rerr=%llu\n",
      static_cast<unsigned long long>(s.monitor_routing.discoveries_succeeded),
      static_cast<unsigned long long>(s.monitor_routing.discoveries_failed),
      static_cast<unsigned long long>(s.monitor_routing.data_forwarded),
      static_cast<unsigned long long>(s.monitor_routing.rerr_sent));
}

}  // namespace

int main(int argc, char** argv) {
  const double duration = argc > 1 ? std::atof(argv[1]) : 1000.0;
  std::printf("MANET protocol comparison, %zu nodes, %.0f s, UDP/CBR\n\n",
              std::size_t{50}, duration);
  run(xfa::RoutingKind::Aodv, duration);
  run(xfa::RoutingKind::Dsr, duration);
  return 0;
}
