#include "bench/registry.h"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/check.h"
#include "common/crc64.h"
#include "common/parse.h"
#include "exec/task_group.h"
#include "exec/thread_pool.h"
#include "scenario/checkpoint.h"
#include "scenario/runner.h"

namespace xfa::bench {
namespace {

/// Registration order is link order (unspecified); plans() sorts by name so
/// every listing is deterministic.
std::vector<ExperimentPlan>& registry() {
  static std::vector<ExperimentPlan> plans;
  return plans;
}

int print_plan_list() {
  std::printf("%-24s %6s  %s\n", "PLAN", "UNITS", "DESCRIPTION");
  for (const ExperimentPlan* plan : plans()) {
    // UNITS counts the plan's shardable trace simulations; "-" marks plans
    // with no trace work (nothing for --shard to partition).
    const std::string units =
        plan->units ? std::to_string(plan->units().size()) : std::string("-");
    std::printf("%-24s %6s  %s\n", plan->name.c_str(), units.c_str(),
                plan->description.c_str());
  }
  return 0;
}

int print_usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--list] [--threads=N] [--out=PATH]\n"
               "       [--checkpoint=DIR [--resume]] [--shard=K/N | --merge]\n"
               "       <plan>...\n"
               "       (run `%s --list` for the registered plans)\n"
               "  --checkpoint=DIR  store each completed work unit as a file "
               "in DIR\n"
               "  --resume          skip the units already stored in DIR\n"
               "  --shard=K/N       simulate only shard K (0-based) of the "
               "plans' trace\n"
               "                    units into the shared cache\n"
               "  --merge           run plans strictly from the cache filled "
               "by the\n"
               "                    shard workers (a missing trace is an "
               "error)\n",
               argv0, argv0);
  return 2;
}

/// Parses "K/N" from "--shard=K/N": K is the 0-based worker index, N the
/// worker count, both digits only. Rejects K >= N and N == 0.
bool parse_shard(const std::string& value, std::size_t* index,
                 std::size_t* count) {
  const std::size_t slash = value.find('/');
  if (slash == std::string::npos) return false;
  const Result<std::uint64_t> k = parse_u64(value.substr(0, slash));
  const Result<std::uint64_t> n = parse_u64(value.substr(slash + 1));
  if (!k.ok() || !n.ok() || *n == 0 || *k >= *n) return false;
  *index = static_cast<std::size_t>(*k);
  *count = static_cast<std::size_t>(*n);
  return true;
}

/// True when `key` belongs to shard `index` of `count`. The partition is a
/// stable content hash of the canonical cache key: independent of plan
/// order, enumeration order, platform and process — so N workers launched
/// with K = 0..N-1 cover every unit exactly once, with no coordination.
bool shard_owns(const std::string& key, std::size_t index, std::size_t count) {
  return crc64(key.data(), key.size()) % count == index;
}

/// Shard-worker mode: enumerate the selected plans' trace units, keep this
/// shard's subset, and simulate them into the shared trace cache through the
/// execution pool. Stdout is shard progress (deterministic counts), not plan
/// output — the plan output comes later from `--merge`.
int run_shard(const std::vector<const ExperimentPlan*>& to_run,
              std::size_t shard_index, std::size_t shard_count) {
  // Dedup on cache key across plans: fig1-fig4 all consume the same trace
  // inventory, and a unit must count (and simulate) once however many of
  // the selected plans want it.
  std::unordered_set<std::string> seen;
  std::vector<ScenarioConfig> mine;
  std::vector<std::string> mine_keys;
  std::size_t total = 0;
  for (const ExperimentPlan* plan : to_run) {
    if (!plan->units) continue;
    for (ScenarioConfig& config : plan->units()) {
      std::string key = config.cache_key();
      if (!seen.insert(key).second) continue;
      ++total;
      if (!shard_owns(key, shard_index, shard_count)) continue;
      mine.push_back(std::move(config));
      mine_keys.push_back(std::move(key));
    }
  }
  std::printf("shard %zu/%zu: %zu of %zu distinct trace unit(s)\n",
              shard_index, shard_count, mine.size(), total);

  // Unlike a gather, one failed unit must not cancel the rest: every healthy
  // artifact this worker can publish is one the merge will not be missing.
  std::vector<Status> statuses(mine.size(), Status::Ok());
  {
    TaskGroup group(shared_pool());
    for (std::size_t i = 0; i < mine.size(); ++i) {
      group.submit([&mine, &statuses, i] {
        const Result<ScenarioResult> result =
            run_scenario_checked(mine[i], LabelPolicy::OnsetOnwards);
        statuses[i] = result.ok() ? Status::Ok() : result.status();
        return Status::Ok();
      });
    }
    (void)group.wait();
  }

  std::size_t failed = 0;
  for (std::size_t i = 0; i < statuses.size(); ++i) {
    if (statuses[i].ok()) continue;
    ++failed;
    std::fprintf(stderr, "shard unit %s: %s\n", mine_keys[i].c_str(),
                 statuses[i].to_string().c_str());
  }
  std::printf("shard %zu/%zu: %zu unit(s) cached, %zu failed\n", shard_index,
              shard_count, mine.size() - failed, failed);
  return failed == 0 ? 0 : 1;
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
  bool threads_set = false;
  std::string out_path;
  std::string checkpoint_dir;
  bool resume = false;
  std::size_t shard_index = 0;
  std::size_t shard_count = 0;  // 0 = not sharding
  bool merge = false;
  std::vector<std::string> selected;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      list = true;
    } else if (arg.rfind("--threads=", 0) == 0) {
      const Result<std::uint64_t> parsed = parse_u64(arg.substr(10));
      if (!parsed.ok() || *parsed == 0) {
        std::fprintf(stderr, "bad --threads value: %s\n", arg.c_str());
        return 2;
      }
      threads = static_cast<std::size_t>(*parsed);
      threads_set = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--checkpoint=", 0) == 0) {
      checkpoint_dir = arg.substr(13);
      if (checkpoint_dir.empty()) {
        std::fprintf(stderr, "--checkpoint needs a directory\n");
        return 2;
      }
    } else if (arg == "--resume") {
      resume = true;
    } else if (arg.rfind("--shard=", 0) == 0) {
      if (!parse_shard(arg.substr(8), &shard_index, &shard_count)) {
        std::fprintf(stderr, "bad --shard value: %s (want K/N with K < N)\n",
                     arg.c_str());
        return 2;
      }
    } else if (arg == "--merge") {
      merge = true;
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
  if (resume && checkpoint_dir.empty()) {
    std::fprintf(stderr, "--resume requires --checkpoint=DIR\n");
    return 2;
  }
  if (shard_count > 0 && merge) {
    std::fprintf(stderr,
                 "--shard and --merge are different run phases; pick one\n");
    return 2;
  }
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

  if (threads_set) resize_shared_pool(threads);
  if (!out_path.empty()) {
    if (std::freopen(out_path.c_str(), "w", stdout) == nullptr) {
      std::fprintf(stderr, "cannot open --out path '%s'\n", out_path.c_str());
      return 2;
    }
  }

  // The checkpoint store outlives every plan run and is uninstalled before
  // it is destroyed; plans see it through checkpoint_store(). A fresh
  // --checkpoint deletes the units of any previous run, --resume keeps them.
  CheckpointStore checkpoint;
  if (!checkpoint_dir.empty()) {
    const Status status = checkpoint.open(checkpoint_dir, resume);
    if (!status.ok()) {
      std::fprintf(stderr, "cannot open checkpoint store in '%s': %s\n",
                   checkpoint_dir.c_str(), status.to_string().c_str());
      return 2;
    }
    install_checkpoint_store(&checkpoint);
  }

  int exit_code = 0;
  if (shard_count > 0) {
    // Shard workers only fill the cache; the plans' own run() output comes
    // from a later --merge (or plain) invocation.
    exit_code = run_shard(to_run, shard_index, shard_count);
  } else {
    // --merge flips the runner into strict cache-only mode for the whole
    // batch: identical control flow to an unsharded run, but any trace the
    // shard workers did not publish fails loudly instead of silently
    // simulating inside the merge.
    if (merge) set_require_cached_traces(true);
    for (const ExperimentPlan* plan : to_run) {
      const int code = plan->run();
      if (code != 0) exit_code = code;
    }
    if (merge) set_require_cached_traces(false);
  }
  if (!checkpoint_dir.empty()) install_checkpoint_store(nullptr);
  std::fflush(stdout);
  return exit_code;
}

PlanRegistrar::PlanRegistrar(std::string name, std::string description,
                             std::function<int()> run,
                             std::function<std::vector<ScenarioConfig>()>
                                 units) {
  register_plan({std::move(name), std::move(description), std::move(run),
                 std::move(units)});
}

}  // namespace xfa::bench
