// The scenario-file plan family: every examples/scenarios/*.scn (or
// $XFA_SCENARIO_DIR/*.scn) is registered as plan "scn:<stem>" and runs
// through xfa_bench exactly like a compiled-in plan — same shared pool, same
// trace cache (the cache key is the canonicalized spec's lowered config
// key, so a scenario file and a registered plan describing the same world
// share one cached trace), same deterministic stdout.
//
// New workloads are therefore data: drop a .scn file in the directory and
// `xfa_bench scn:<stem>` runs it with zero new C++.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "scenario/graph/parse.h"
#include "scenario/graph/registry.h"
#include "scenario/graph/spec.h"
#include "scenario/runner.h"

namespace xfa::bench {
namespace {

int run_scenario_file(const std::string& path) {
  Result<ScenarioSpec> spec = load_scenario_file(path);
  if (!spec.ok()) {
    std::fprintf(stderr, "error: %s\n", spec.status().to_string().c_str());
    return 1;
  }
  Result<ScenarioConfig> config = lower_spec(*spec);
  if (!config.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 config.status().to_string().c_str());
    return 1;
  }

  std::printf("scenario file: %s\n", path.c_str());
  std::printf("elements:");
  for (const ElementSpec& elem : spec->elements) {
    std::printf(" %s", elem.name.c_str());
    if (elem.name != elem.type) std::printf("(%s)", elem.type.c_str());
  }
  std::printf("\n");
  std::printf("nodes=%zu duration=%.6g seed=%llu routing=%s transport=%s\n",
              config->node_count, config->duration,
              static_cast<unsigned long long>(config->seed),
              to_string(config->routing), to_string(config->transport));
  std::printf("cache-key: %s\n", config->cache_key().c_str());

  Result<ScenarioResult> result =
      run_scenario_checked(*config, LabelPolicy::OnsetOnwards);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s: %s\n", path.c_str(),
                 result.status().to_string().c_str());
    return 1;
  }

  const RawTrace& trace = result->trace;
  std::size_t anomalous = 0;
  for (const int label : trace.labels) anomalous += label != 0 ? 1u : 0u;
  const ScenarioSummary& summary = result->summary;
  std::printf("samples=%zu features=%zu anomalous-labels=%zu\n", trace.size(),
              trace.rows.empty() ? 0 : trace.rows.front().size(), anomalous);
  std::printf("pdr=%.4f scheduler-events=%llu\n",
              summary.packet_delivery_ratio,
              static_cast<unsigned long long>(summary.scheduler_events));
  std::printf("monitor: audit-packets=%llu route-events=%llu "
              "data-forwarded=%llu control-originated=%llu\n",
              static_cast<unsigned long long>(summary.monitor_audit_packets),
              static_cast<unsigned long long>(
                  summary.monitor_audit_route_events),
              static_cast<unsigned long long>(
                  summary.monitor_routing.data_forwarded),
              static_cast<unsigned long long>(
                  summary.monitor_routing.control_originated));
  return 0;
}

/// Directory the .scn plans are enumerated from: $XFA_SCENARIO_DIR, or
/// examples/scenarios relative to the working directory.
std::filesystem::path scenario_dir() {
  if (const char* dir = std::getenv("XFA_SCENARIO_DIR");
      dir != nullptr && dir[0] != '\0') {
    return dir;
  }
  return "examples/scenarios";
}

/// Enumerates *.scn at static-init time. A missing directory simply
/// registers nothing (running xfa_bench outside the repo root is fine; the
/// compiled-in plans are unaffected).
struct ScenarioFileRegistrar {
  ScenarioFileRegistrar() {
    std::error_code ec;
    std::filesystem::directory_iterator it(scenario_dir(), ec);
    if (ec) return;
    std::vector<std::filesystem::path> files;
    for (const auto& entry : it) {
      if (entry.path().extension() == ".scn") files.push_back(entry.path());
    }
    std::sort(files.begin(), files.end());
    for (const std::filesystem::path& file : files) {
      const std::string path = file.string();
      register_plan({"scn:" + file.stem().string(),
                     "Scenario file " + path,
                     [path] { return run_scenario_file(path); }});
    }
  }
};

const ScenarioFileRegistrar scenario_file_registrar;

}  // namespace
}  // namespace xfa::bench
