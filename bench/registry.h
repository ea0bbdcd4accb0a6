// Declarative bench driver: every reproduced figure/table/ablation is an
// ExperimentPlan registered at static-init time, and one binary (xfa_bench)
// lists and runs them.
//
// CLI contract (run_plan_cli):
//   xfa_bench --list                 print the registered plans (with their
//                                    shardable trace-unit counts)
//   xfa_bench <plan> [<plan>...]     run plans in the given order
//   xfa_bench <plan> --threads=N     size the shared execution pool first
//   xfa_bench <plan> --out=PATH      redirect stdout to PATH
//   xfa_bench <plan> --checkpoint=DIR [--resume]
//                                    store each completed work unit as a
//                                    file in DIR; --resume skips units
//                                    already stored
//   xfa_bench <plan> --shard=K/N     simulate only this worker's 1/N of the
//                                    plans' trace units into the shared
//                                    cache (K in 0..N-1); prints shard
//                                    progress instead of plan output
//   xfa_bench <plan> --merge         run the plans in strict cache-only mode
//                                    (scenario/runner.h): every trace must
//                                    already be cached by the shard workers,
//                                    and a miss is an error, never a silent
//                                    re-simulation
//
// Plans print to stdout exactly what the pre-registry binaries printed;
// --threads only changes wall-clock, never bytes (see DESIGN.md §9), and a
// resumed run's output is byte-identical to an uninterrupted one for any
// kill point (see DESIGN.md §13). Sharding composes the same way: units are
// partitioned by a stable hash of their canonical cache key, so for any N
// the union over K covers every unit exactly once, and a --merge after all
// N workers finish emits bytes identical to the unsharded run (DESIGN.md
// §15).
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "scenario/config.h"

namespace xfa::bench {

struct ExperimentPlan {
  std::string name;         // CLI handle, e.g. "fig1"
  std::string description;  // one-line summary for --list
  std::function<int()> run; // returns the process exit code
  /// Enumerates the trace work units run() will request: the scenario
  /// configs whose cache keys sharded execution partitions (--shard=K/N)
  /// and whose artifacts a --merge run loads. Must agree with what run()
  /// actually simulates — both sides funnel through the same enumeration
  /// helpers (scenario/pipeline.h experiment_configs) to guarantee it.
  /// Plans that simulate no traces (pedagogical tables, perf micro-plans)
  /// leave this unset.
  std::function<std::vector<ScenarioConfig>()> units;
};

/// Adds a plan to the registry. Duplicate names abort (XFA_CHECK).
void register_plan(ExperimentPlan plan);

/// All registered plans, sorted by name.
std::vector<const ExperimentPlan*> plans();

/// Looks up one plan; nullptr when unknown.
const ExperimentPlan* find_plan(const std::string& name);

/// The xfa_bench entry point. With no plan selected it prints usage and
/// returns 2.
int run_plan_cli(int argc, char** argv);

/// Registers a plan from a translation-unit-scope static initializer:
///   const PlanRegistrar registrar{"fig1", "Figure 1: ...", run_plan,
///                                 plan_units};
/// The unit enumerator is optional; omit it for plans without trace work.
struct PlanRegistrar {
  PlanRegistrar(std::string name, std::string description,
                std::function<int()> run,
                std::function<std::vector<ScenarioConfig>()> units = {});
};

}  // namespace xfa::bench
