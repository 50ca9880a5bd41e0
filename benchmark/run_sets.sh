#!/usr/bin/env bash
# Run one set of the benchmark from the root of a checkout: every workload
# (or those named) once per seed, appending one "workload<TAB>result line"
# per run to OUT.  Two sets compare with --compare:
#
#   bash benchmark/run_sets.sh .lisa_bench/a.tsv 1 10
#   bash benchmark/run_sets.sh .lisa_bench/b.tsv 11 10
#   bash benchmark/run.sh --compare .lisa_bench/a.tsv .lisa_bench/b.tsv
#
# Each run measures for 15 s, BENCHMARK.json's run_seconds.
set -euo pipefail

if [ $# -lt 3 ]; then
  echo "usage: $0 OUT FIRST_SEED COUNT [WORKLOAD...]" >&2
  exit 2
fi
out=$1 first=$2 count=$3
shift 3
workloads=("$@")
if [ ${#workloads[@]} -eq 0 ]; then
  workloads=(scan scan-jobs2 ci serve-hot serve-cold)
fi

for w in "${workloads[@]}"; do
  for seed in $(seq "$first" $((first + count - 1))); do
    line=$(bash benchmark/run.sh --workload "$w" --seed "$seed" \
      --seconds 15 --trace 0 | tail -n 1)
    printf '%s\t%s\n' "$w" "$line" >> "$out"
  done
done
