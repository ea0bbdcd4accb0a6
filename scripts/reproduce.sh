#!/usr/bin/env sh
# Regenerates every table and figure of the paper, plus the ablations,
# through the declarative bench driver. xfa_bench simulates each trace on
# first use (47 traces of 10^4 simulated seconds); all traces are cached
# under ./xfa_cache for subsequent runs. On a 4-core x86-64 host the plans
# take 108-135 s cold at --threads=4 and 177-244 s at --threads=1, and
# 7-13 s warm. Pass a thread count to parallelize the trace simulations,
# e.g. scripts/reproduce.sh 4 (the printed bytes are identical for any
# thread count).
set -e
THREADS="${1:-0}"
cmake -B build -G Ninja
cmake --build build
ctest --test-dir build --output-on-failure
PLANS="table1_3 table4_6 fig1 fig2 fig3 fig4 fig5 fig6 \
  ablation_buckets ablation_periods ablation_threshold \
  ablation_generalization ablation_labels"
if [ "${THREADS}" -gt 0 ] 2>/dev/null; then
  # shellcheck disable=SC2086
  ./build/bench/xfa_bench --threads="${THREADS}" ${PLANS}
else
  # shellcheck disable=SC2086
  ./build/bench/xfa_bench ${PLANS}
fi
