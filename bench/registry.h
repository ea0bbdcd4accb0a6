// Declarative bench driver: every reproduced figure/table/ablation is an
// ExperimentPlan registered at static-init time, and one binary (xfa_bench)
// lists and runs them.
//
// CLI contract (run_plan_cli):
//   xfa_bench --list                 print the registered plans
//   xfa_bench <plan> [<plan>...]     run plans in the given order
//   xfa_bench <plan> --threads=N     size the shared execution pool first
//                                    (1..kMaxThreads, exec/thread_pool.h)
//   xfa_bench <plan> --out=PATH      redirect stdout to PATH
//
// Every trace a plan needs comes through the trace cache
// (scenario/runner.h): simulated on first use, loaded afterwards. Plans
// print to stdout exactly what the pre-registry binaries printed; --threads
// only changes wall-clock, never bytes (see DESIGN.md §9). A malformed or
// unknown flag, or an unknown plan, exits 2 before anything runs.
#pragma once

#include <functional>
#include <string>
#include <vector>

namespace xfa::bench {

struct ExperimentPlan {
  std::string name;         // CLI handle, e.g. "fig1"
  std::string description;  // one-line summary for --list
  std::function<int()> run; // returns the process exit code
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
///   const PlanRegistrar registrar{"fig1", "Figure 1: ...", run_plan};
struct PlanRegistrar {
  PlanRegistrar(std::string name, std::string description,
                std::function<int()> run);
};

}  // namespace xfa::bench
