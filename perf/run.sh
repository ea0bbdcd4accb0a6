#!/usr/bin/env bash
# Entry point of the xfa_perf benchmark (see perf/README.md).
#
#   perf/run.sh --workload W --seed N --seconds T --trace 0|1
#       Builds if needed, runs workload W once and prints the result JSON as
#       the last line of stdout (per-layer metrics with --trace 1).
#   perf/run.sh build
#       Configures and builds build-perf/xfa_perf, then simulates the
#       detect-paper inventory into build-perf/traces (once, ~40 s).
#   perf/run.sh selftest
#       Shrunk workloads: threads 1 vs 2 and traced vs plain digests agree,
#       every JSON parses, and a wrong expected digest fails.
#   perf/run.sh stability W [N=10]
#       N runs of W with seeds 1..N; median, IQR and min/max per metric.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
build_dir=build-perf
bin="$build_dir/xfa_perf"
workloads=(cold-aodv-udp cold-dsr-tcp detect-paper scale-1k)

# Inherited XFA_* settings (fast mode, no-cache, retries, deadlines, cache
# directory) would change what a run measures.
while IFS= read -r name; do unset "$name"; done < <(compgen -e | grep '^XFA_' || true)

build() {
  if [[ ! -f src/CMakeLists.txt ]]; then
    echo "run.sh: $root has no src/ to build; run from a full checkout" >&2
    exit 2
  fi
  [[ -f "$build_dir/CMakeCache.txt" ]] ||
    cmake -S perf -B "$build_dir" -DCMAKE_BUILD_TYPE=RelWithDebInfo >&2
  cmake --build "$build_dir" -j"$(nproc)" --target xfa_perf >&2
  "$bin" prepare --traces="$build_dir/traces" --threads="$(nproc)"
}

# run_one WORKLOAD SEED SECONDS [xfa_perf flags...]: one run in a fresh work
# directory (its trace cache), removed afterwards.
run_one() {
  local workload=$1 seed=$2 seconds=$3
  shift 3
  local work="$build_dir/work/$$-$workload"
  local commit=unknown
  [[ -d .git ]] && commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
  rm -rf "$work"
  local status=0
  "$bin" run "$workload" --seed="$seed" --seconds="$seconds" --threads=2 \
    --work="$work" --traces="$build_dir/traces" --golden=perf/golden.txt \
    --commit="$commit" "$@" || status=$?
  rm -rf "$work"
  return "$status"
}

usage() {
  sed -n '2,15p' "${BASH_SOURCE[0]}" >&2
  exit 2
}

selftest() {
  build
  local dir="$build_dir/selftest"
  rm -rf "$dir"
  mkdir -p "$dir"
  local w
  for w in "${workloads[@]}"; do
    run_one "$w" 0 0 --quick --threads=1 >"$dir/$w.t1"
    run_one "$w" 0 0 --quick --threads=2 >"$dir/$w.t2"
    run_one "$w" 0 0 --quick --threads=2 --trace="$dir/$w.trace.json" >"$dir/$w.traced"
    python3 -m json.tool "$dir/$w.trace.json" >/dev/null
    local out
    for out in "$dir/$w".t1 "$dir/$w".t2 "$dir/$w".traced; do
      tail -n 2 "$out" | while IFS= read -r line; do
        python3 -m json.tool <<<"$line" >/dev/null
      done
    done
    python3 - "$dir/$w" <<'EOF'
import json, sys
base = sys.argv[1]
runs = {k: json.loads(open(f"{base}.{k}").read().splitlines()[-2]) for k in ("t1", "t2", "traced")}
for name, run in runs.items():
    assert run["ok"], f"{base}.{name}: not ok"
digests = {name: run["digest"] for name, run in runs.items()}
assert len(set(digests.values())) == 1, f"digests differ: {digests}"
print(f"selftest {runs['t1']['workload']}: digest {digests['t1']} at threads 1, 2 and traced")
EOF
  done
  if run_one detect-paper 0 0 --quick --expect=0000000000000000 >"$dir/negative" 2>&1; then
    echo "selftest: a wrong expected digest did not fail the run" >&2
    exit 1
  fi
  echo "selftest: wrong expected digest rejected; all checks passed"
}

stability() {
  local workload=$1 runs=${2:-10}
  build
  local seconds
  seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
  local out="$build_dir/stability-$workload.jsonl"
  : >"$out"
  local seed
  for ((seed = 1; seed <= runs; seed++)); do
    run_one "$workload" "$seed" "$seconds" | tail -n 1 >>"$out"
  done
  python3 - "$out" <<'EOF'
import json, statistics, sys
results = [json.loads(line) for line in open(sys.argv[1])]
assert all(r["correct"] for r in results), "a run was not correct"
print(f"{len(results)} runs of {sys.argv[1]}")
print(f"{'metric':<14} {'median':>12} {'iqr/median':>11} {'min':>12} {'max':>12}")
for name in results[0]["metrics"]:
    values = [r["metrics"][name]["value"] for r in results]
    q1, med, q3 = statistics.quantiles(values, n=4)
    print(f"{name:<14} {med:>12.6g} {(q3 - q1) / med:>11.4f} {min(values):>12.6g} {max(values):>12.6g}")
EOF
}

case "${1:-}" in
  build) build ;;
  selftest) selftest ;;
  stability)
    [[ $# -ge 2 ]] || usage
    stability "$2" "${3:-10}"
    ;;
  --*)
    workload="" seed=0 seconds=20 trace=0
    while [[ $# -ge 2 ]]; do
      case "$1" in
        --workload) workload=$2 ;;
        --seed) seed=$2 ;;
        --seconds) seconds=$2 ;;
        --trace) trace=$2 ;;
        *) usage ;;
      esac
      shift 2
    done
    [[ $# -eq 0 && -n "$workload" ]] || usage
    build >&2
    if [[ "$trace" == 1 ]]; then
      run_one "$workload" "$seed" "$seconds" --trace="$build_dir/trace-$workload.json"
    else
      run_one "$workload" "$seed" "$seconds"
    fi
    ;;
  *) usage ;;
esac
