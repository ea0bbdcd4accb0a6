#include "lint/rules.h"

#include <algorithm>

namespace xfa::lint {

const std::vector<RuleInfo>& rule_registry() {
  static const std::vector<RuleInfo> kRules = {
      {"atomic-write",
       "no raw std::ofstream / fopen / freopen outside common/atomic_file.*",
       "src/** except src/common/atomic_file.*",
       "Every artifact writer funnels through the crash-safe publication "
       "layer (atomic_write_file, write_framed_file in "
       "common/atomic_file.h): unique temp + fsync + atomic rename is what "
       "makes a SIGKILL at any instant leave either the old complete file "
       "or the new one. A raw output stream reintroduces torn files, which "
       "the CRC framing can only detect after the fact, not prevent."},
      {"check-no-side-effects",
       "no ++/--/assignment inside XFA_CHECK arguments",
       "src/**",
       "XFA_CHECK stays armed in every build, and the comparison variants "
       "re-evaluate operands when composing the failure message; XFA_DCHECK "
       "vanishes in release builds. Either way a side effect inside a check "
       "argument runs a different number of times across build types, so "
       "program state silently diverges from the sanitizer builds CI "
       "actually tests."},
      {"cmake-registered",
       "every .cpp under src/ is listed in src/CMakeLists.txt",
       "src/**/*.cpp",
       "A translation unit missing from the build silently drops out of "
       "compilation, clang-tidy, and sanitizer coverage while still looking "
       "maintained."},
      {"element-registry",
       "no direct construction of routing/transport/attack components "
       "outside scenario/graph",
       "src/** except src/scenario/graph",
       "Node stacks are composed by the element factory registry "
       "(scenario/graph/registry.cpp), which owns construction order — and "
       "construction order is behaviour: components fork their RNG streams "
       "in their constructors, so a hand-built Aodv or DropAttack silently "
       "reorders every stream after it and breaks the byte-identical-trace "
       "guarantee scenario files rely on. Register an element instead."},
      {"exec-only-threads",
       "no raw std::thread / std::jthread / std::async outside src/exec",
       "src/** except src/exec",
       "All concurrency goes through the shared execution layer (ThreadPool, "
       "TaskGroup, parallel_for), which owns the determinism and nested-wait "
       "guarantees; a raw thread bypasses cancellation, ExecStats, and the "
       "cooperative-drain deadlock protection."},
      {"fused-mi",
       "no per-row mutual_information() calls inside src/ml loop bodies",
       "src/ml except ml/feature_select.*",
       "mutual_information() is the pairwise reference oracle: one call "
       "builds a fresh joint histogram and takes a libm log2 per non-zero "
       "cell. Inside a loop that is O(rows * cardinality^2) recomputation "
       "of values the fused ranking pass (rank_features, "
       "ml/feature_select.h) produces for all pairs in one memoized "
       "counting sweep — rank once per train and reuse the FeatureRanking."},
      {"hoist-or-grid",
       "no mobility_.position() inside src/net loop bodies",
       "src/net except net/neighbor_index.*",
       "A position lookup is a virtual call, a bounds check, a memo probe "
       "and a segment interpolation, so a per-receiver lookup in a channel "
       "hot loop costs all of that N times per transmission; hoist the "
       "query out of the loop or route it through the spatial "
       "NeighborIndex, which owns the sanctioned bulk query."},
      {"include-cycle",
       "the quoted-include graph under src/ is acyclic",
       "src/**",
       "An include cycle means no header in the loop can be understood (or "
       "compiled) on its own; whichever TU includes one of them first picks "
       "the winner by accident."},
      {"include-layering",
       "includes must respect the declared module-layering DAG",
       "src/**",
       "Modules are layered common/exec < sim/net/mobility < routing/"
       "transport/attacks/faults/audit < features/ml/cfa/eval/scenario. An "
       "upward include couples a lower layer to policy above it, which is "
       "how simulation internals grow detection dependencies and a lower "
       "layer can no longer be built or tested in isolation."},
      {"no-mutable-global",
       "no mutable namespace-scope state outside src/exec and common/env.*",
       "src/** except src/exec, src/common/env.*",
       "Mutable globals are cross-trace coupling: two scenario runs on the "
       "shared pool would observe each other through them, breaking the "
       "byte-identical-for-any-thread-count guarantee. The execution layer "
       "and the immutable env snapshot are the two audited exceptions."},
      {"no-raw-assert",
       "no C assert(); contracts use the XFA_CHECK family",
       "src/**",
       "assert() vanishes under NDEBUG — exactly the configuration tier-1 CI "
       "builds — so none of those invariants would actually be exercised. "
       "XFA_CHECK (common/check.h) stays armed in every build type."},
      {"ordered-iteration",
       "no range-for over unordered containers in artifact-emitting modules",
       "src/audit, src/features, src/cfa, src/eval, src/scenario",
       "Unordered-container iteration order is an accident of hashing and "
       "insertion history; in a TU that feeds traces, alerts, or other "
       "artifacts, that order leaks into emitted bytes and breaks the "
       "byte-identical-per-seed guarantee across library versions. Iterate "
       "a sorted view or an order-preserving structure instead."},
      {"pragma-once",
       "every header opens with #pragma once",
       "src/**/*.h",
       "Headers must be safely includable from any TU; the repo "
       "standardizes on #pragma once (after any leading comment block) "
       "instead of guard macros."},
      {"rng-determinism",
       "no std::rand/random_device/srand/time() outside sim/rng.*",
       "src/** except src/sim/rng.*",
       "Every stochastic draw must come from the centrally seeded xfa::Rng "
       "so identical scenario seeds reproduce traces byte-for-byte; raw "
       "entropy or wall-clock input anywhere else silently forks the "
       "stream."},
      {"status-not-abort",
       "scenario TUs that do file I/O must not XFA_CHECK",
       "src/scenario TUs including <fstream>/<filesystem>/<cstdio>",
       "Environmental failures (corrupt artifacts, full disks, racing "
       "writers) are expected at production scale and must propagate as "
       "Status/Result (common/status.h); an abort-style contract turns a "
       "recoverable cache problem into a process kill."},
      {"unused-include",
       "direct includes must provide at least one name the TU uses",
       "src/**",
       "IWYU-lite: an include whose declared names never appear in the "
       "including TU is dead coupling — it slows builds, widens the "
       "layering graph, and hides the include that is actually load-"
       "bearing. Matching is conservative (declaration-anchored names), so "
       "a finding here is near-certain dead weight."},
  };
  return kRules;
}

const RuleInfo* find_rule(std::string_view id) {
  const auto& rules = rule_registry();
  const auto it = std::find_if(rules.begin(), rules.end(),
                               [&](const RuleInfo& r) { return r.id == id; });
  return it == rules.end() ? nullptr : &*it;
}

const SourceFile* Project::find(std::string_view rel) const {
  const auto it = std::lower_bound(
      files.begin(), files.end(), rel,
      [](const SourceFile& f, std::string_view r) { return f.rel < r; });
  return it != files.end() && it->rel == rel ? &*it : nullptr;
}

}  // namespace xfa::lint
