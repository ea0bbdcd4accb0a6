#!/usr/bin/env bash
# Full correctness gate: build + test the tree three times —
#   1. plain Release with XFA_WERROR=ON (warnings are errors),
#   2. ASan+UBSan with recovery disabled (any report aborts the test), and
#   3. TSan over the concurrency suites (thread pool, task groups,
#      single-flight, deadline guards, cache stress, parallel gather,
#      engine determinism) —
# running the xfa_lint repo rules, the whole ctest suite (the hot-path
# correctness cases and the quickstart example included) and the
# scenario-file and supervised xfa_bench smokes in the first two
# passes. After the release pass it builds and self-tests the perf/
# benchmark driver, which compiles src/ on its own, so an API change that
# breaks it fails here, and checks one full-size run of every workload
# against perf/golden.txt, so a change that moves output bytes fails too.
# Also after the release pass, a 5000-node AODV world must peak below
# 128 MB RSS, so per-node state that grows with the node count fails too.
# That gate is an addition: no earlier gate or bound is loosened for it.
# After the sanitizer pass it re-runs the chaos / corruption / command-line
# robustness suites with the cache forced off (XFA_NO_CACHE) so every
# fault-injection, artifact-parsing and xfa_bench subprocess path is
# actually exercised under ASan+UBSan. CI runs exactly this script.
#
# Usage: scripts/check.sh [jobs]
set -euo pipefail

cd "$(dirname "$0")/.."
JOBS="${1:-$(nproc)}"

# Tracked-artifact guard: no build tree may ever be committed again (PR 10
# purged 1,350 build-review/ files). Any tracked CMakeCache.txt or
# CMakeFiles/ path fails the gate before anything is built.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
  tracked_artifacts=$(git ls-files | \
    grep -E '(^|/)CMakeCache\.txt$|(^|/)CMakeFiles/' || true)
  if [[ -n "${tracked_artifacts}" ]]; then
    echo "=== FAIL: build artifacts are tracked in git ===" >&2
    echo "${tracked_artifacts}" | head -20 >&2
    echo "(git rm -r --cached them; .gitignore covers build*/)" >&2
    exit 1
  fi
fi

run_pass() {
  local name="$1" build_dir="$2"
  shift 2
  echo "=== ${name}: configure ==="
  cmake -B "${build_dir}" -S . -DXFA_WERROR=ON "$@"
  echo "=== ${name}: build ==="
  cmake --build "${build_dir}" -j "${JOBS}"
  echo "=== ${name}: lint ==="
  ctest --test-dir "${build_dir}" -R xfa_lint --output-on-failure
  # Machine-readable report for CI artifact upload; exit status already
  # enforced by the ctest gate above.
  "${build_dir}/tools/lint/xfa_lint" --format=sarif \
    --out="${build_dir}/xfa_lint.sarif" . >/dev/null || true
  echo "=== ${name}: scenario-file smoke (element graph, data-only combo) ==="
  # One examples/scenarios/*.scn end to end: parse -> lower -> build -> run.
  # The impersonation+TCP+faults combo exists only as data (no compiled-in
  # plan wires it), so this exercises the whole element path.
  XFA_NO_CACHE=1 XFA_SCENARIO_DIR=examples/scenarios \
    "${build_dir}/bench/xfa_bench" scn:impersonation-tcp-faults
  echo "=== ${name}: supervised smoke (deadline guard changes no bytes) ==="
  # Every trace simulation runs under a live DeadlineGuard with a budget it
  # never reaches; the output must match an unsupervised run.
  XFA_FAST=1 XFA_NO_CACHE=1 \
    "${build_dir}/bench/xfa_bench" smoke > "${build_dir}/smoke-plain.txt"
  XFA_FAST=1 XFA_NO_CACHE=1 XFA_TRACE_DEADLINE_MS=600000 \
    "${build_dir}/bench/xfa_bench" smoke > "${build_dir}/smoke-supervised.txt"
  cmp "${build_dir}/smoke-supervised.txt" "${build_dir}/smoke-plain.txt"
  echo "=== ${name}: ctest ==="
  # Includes the hot-path correctness cases (grid vs brute force, scheduler
  # counters, mobility cache, refit determinism, serial vs parallel score
  # bit-identity, a 500-node scale smoke) and the quickstart example.
  ctest --test-dir "${build_dir}" -j "${JOBS}" --output-on-failure
}

run_pass "release" build-check-release -DCMAKE_BUILD_TYPE=Release

# Scale-memory gate: one 5000-node AODV world (scale-1000.scn at the same
# density, the 5k point its header describes) must peak below 128 MB RSS.
# Per-node protocol state that grows with the node count, such as an array
# indexed by neighbor id, costs O(N^2) bytes per world and fails here long
# before a 10k-node run would exhaust memory. The .scn is written into the
# build tree, because every file in examples/scenarios is a registered plan.
echo "=== release: scale-memory gate (5000 nodes, peak RSS <= 128 MB) ==="
scale_dir=build-check-release/scale-scn
mkdir -p "${scale_dir}"
sed -e 's/^nodes = 1000$/nodes = 5000/' \
  -e 's/^width = 4500$/width = 10000/' \
  -e 's/^height = 4500$/height = 10000/' \
  examples/scenarios/scale-1000.scn > "${scale_dir}/scale-5000.scn"
grep -q '^nodes = 5000$' "${scale_dir}/scale-5000.scn"
grep -q '^width = 10000$' "${scale_dir}/scale-5000.scn"
grep -q '^height = 10000$' "${scale_dir}/scale-5000.scn"
XFA_NO_CACHE=1 XFA_SCENARIO_DIR="${scale_dir}" python3 - \
  build-check-release/bench/xfa_bench <<'PY'
import resource, subprocess, sys
subprocess.run([sys.argv[1], "scn:scale-5000", "--threads=1"], check=True,
               stdout=subprocess.DEVNULL)
peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"scale-5000 peak RSS {peak_mb:.1f} MB (limit 128 MB)")
sys.exit(0 if peak_mb <= 128 else 1)
PY

# The benchmark driver (perf/xfa_perf.cpp) is a separate CMake project over
# the same src/; its selftest builds it, checks digests across thread
# counts and traced vs plain runs, and validates every JSON it emits.
echo "=== perf: benchmark driver selftest ==="
bash perf/run.sh selftest

# Golden-digest gate: the selftest's --quick units have no entry in
# perf/golden.txt, so a change that moves any simulated or scored byte would
# pass it. One full-size run of each workload at seed 0 (two units, a few
# seconds each on the build above) is checked against the golden digest;
# a mismatch makes xfa_perf report correct: false and exit 1.
echo "=== perf: golden digests of every workload (seed 0, full size) ==="
for workload in cold-aodv-udp cold-dsr-tcp detect-paper scale-1k; do
  bash perf/run.sh --workload "${workload}" --seed 0 --seconds 0 \
    > "build-perf/golden-${workload}.txt"
  echo "perf golden: ${workload} seed 0 matches perf/golden.txt"
done

run_pass "asan+ubsan" build-check-sanitize \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXFA_SANITIZE="address;undefined"

# Robustness gate: the trace-cache corruption sweeps
# (cache_robustness_test), the xfa_bench command-line harness (bench_cli_test —
# racing and usage-error xfa_bench subprocesses, all sanitized), the
# fault-injection layer (faults_test, degraded_cfa_test), the
# determinism-under-faults guard, and
# the channel's pooled arrival records (the ChannelTest re-entrancy cases and
# the FanOut batched-vs-per-receiver world comparison), and the block scoring
# kernels and branch-free discretizer, which index tables and cut rows by
# row values (BlockKernelTest feeds them negative and out-of-range values),
# and the dataset view's (column, value) row bitsets and the RIPPER fit that
# ANDs and popcounts them, which index words by row value and row number
# (DatasetViewTest, RipperTest),
# and the DSR route cache, which overwrites evicted paths in place and
# compacts a destination's slots on removal (DsrRouteCache, DsrAgent),
# and the neighbor grid, whose confirmation bitset is indexed by node id
# (NeighborIndexTest), and the flood-id cache, which erases expired entries
# while the agent keeps using it (FloodIdCache), and the AODV neighbor
# table, which indexes its slots by a masked node id and shifts them back
# on erase (NeighborTable), and the CRC-64 kernel, which reads its input as
# 8-byte words at any alignment (Crc64),
# must all hold with sanitizers armed and caching disabled — no on-disk bytes
# may crash the process, and no chaos, arrival-pool, kernel, grid,
# flood-cache, neighbor-table or checksum path may contain UB.
echo "=== asan+ubsan: chaos/corruption/CLI robustness (cache disabled) ==="
XFA_NO_CACHE=1 ctest --test-dir build-check-sanitize -j "${JOBS}" \
  -R 'CacheRobustness|BenchCli|FaultPlan|FaultInjector|FaultScenario|DegradedCfa|DegradedPipeline|Determinism|FeatSel|ChannelTest|FanOut|BlockKernel|RipperTest|DatasetViewTest|DiscretizerBranchless|DsrRouteCache|DsrAgent|NeighborIndexTest|FloodIdCache|NeighborTable|Crc64' \
  --output-on-failure

# Concurrency gate: the execution layer and everything built on it must be
# race-free under ThreadSanitizer. ASan and TSan cannot share a build, so
# this is its own pass; it runs only the concurrency-focused suites (a full
# TSan ctest would multiply the simulation-heavy tests' runtime ~10x for no
# extra interleaving coverage). RipperTest fits RIPPER sub-models on 2 and 8
# pool threads over one shared DatasetView and its row bitsets; RatioMemo
# races pool threads to the first use of the per-process log2 ratio tables.
echo "=== tsan: configure + build ==="
cmake -B build-check-tsan -S . -DXFA_WERROR=ON \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DXFA_SANITIZE="thread"
cmake --build build-check-tsan -j "${JOBS}"
echo "=== tsan: concurrency suites ==="
ctest --test-dir build-check-tsan -j "${JOBS}" \
  -R 'ThreadPool|TaskGroup|ParallelFor|SingleFlight|SharedPool|CacheStress|ParallelGather|EngineDeterminism|ScoreAllBitIdentical|FamilyParamTest|RipperTest|RatioMemo|DatasetViewTest|BlockKernel|DiscretizerBranchless|Deadline|FeatSel' \
  --output-on-failure

echo "All checks passed."
