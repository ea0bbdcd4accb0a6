#include "bench/registry.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/check.h"
#include "common/parse.h"
#include "exec/thread_pool.h"

namespace xfa::bench {
namespace {

/// Registration order is link order (unspecified); plans() sorts by name so
/// every listing is deterministic.
std::vector<ExperimentPlan>& registry() {
  static std::vector<ExperimentPlan> plans;
  return plans;
}

int print_plan_list() {
  std::printf("%-24s  %s\n", "PLAN", "DESCRIPTION");
  for (const ExperimentPlan* plan : plans())
    std::printf("%-24s  %s\n", plan->name.c_str(), plan->description.c_str());
  return 0;
}

int print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--threads=N] [--out=PATH] <plan>...\n"
               "       (run `%s --list` for the registered plans)\n",
               argv0, argv0);
  return 2;
}

}  // namespace

void register_plan(ExperimentPlan plan) {
  XFA_CHECK(!plan.name.empty()) << "plan with empty name";
  XFA_CHECK(static_cast<bool>(plan.run)) << "plan '" << plan.name
                                         << "' has no run function";
  XFA_CHECK(find_plan(plan.name) == nullptr)
      << "duplicate plan name '" << plan.name << "'";
  registry().push_back(std::move(plan));
}

std::vector<const ExperimentPlan*> plans() {
  std::vector<const ExperimentPlan*> sorted;
  sorted.reserve(registry().size());
  for (const ExperimentPlan& plan : registry()) sorted.push_back(&plan);
  std::sort(sorted.begin(), sorted.end(),
            [](const ExperimentPlan* a, const ExperimentPlan* b) {
              return a->name < b->name;
            });
  return sorted;
}

const ExperimentPlan* find_plan(const std::string& name) {
  for (const ExperimentPlan& plan : registry())
    if (plan.name == name) return &plan;
  return nullptr;
}

int run_plan_cli(int argc, char** argv) {
  bool list = false;
  std::size_t threads = 0;  // 0 = leave the shared pool at its default size
  std::string out_path;
  std::vector<std::string> selected;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const Result<std::uint64_t> parsed = parse_u64(arg.substr(10));
      if (!parsed.ok() || *parsed == 0 || *parsed > kMaxThreads) {
        std::fprintf(stderr, "bad --threads value: %s (want 1..%zu)\n",
                     arg.c_str(), kMaxThreads);
        return 2;
      }
      threads = static_cast<std::size_t>(*parsed);
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
      if (out_path.empty()) {
        std::fprintf(stderr, "--out needs a path\n");
        return 2;
      }
    } else if (arg == "--help" || arg == "-h") {
      return print_usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    } else {
      selected.push_back(arg);
    }
  }

  if (list) return print_plan_list();
  if (selected.empty()) return print_usage(argv[0]);

  // Resolve every plan before running any, so a typo in the second name
  // does not waste the first plan's simulation time.
  std::vector<const ExperimentPlan*> to_run;
  for (const std::string& name : selected) {
    const ExperimentPlan* plan = find_plan(name);
    if (plan == nullptr) {
      std::fprintf(stderr, "unknown plan '%s'; run `%s --list`\n",
                   name.c_str(), argv[0]);
      return 2;
    }
    to_run.push_back(plan);
  }

  if (threads != 0) resize_shared_pool(threads);
  if (!out_path.empty()) {
    if (std::freopen(out_path.c_str(), "w", stdout) == nullptr) {
      std::fprintf(stderr, "cannot open --out path '%s'\n", out_path.c_str());
      return 2;
    }
  }

  int exit_code = 0;
  for (const ExperimentPlan* plan : to_run) {
    const int code = plan->run();
    if (code != 0) exit_code = code;
  }
  std::fflush(stdout);
  return exit_code;
}

PlanRegistrar::PlanRegistrar(std::string name, std::string description,
                             std::function<int()> run) {
  register_plan({std::move(name), std::move(description), std::move(run)});
}

}  // namespace xfa::bench
