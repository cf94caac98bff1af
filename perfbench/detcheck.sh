#!/bin/sh
# Runs two traced runs of one workload at one seed and checks that the
# deterministic per-layer counts (layers.go: deterministicCounts) repeat
# exactly, as a gate on them would require:
#
#   bash perfbench/detcheck.sh repro|serve|farm [SEED]
set -eu

root="$(cd "$(dirname "$0")/.." && pwd)"
workload="$1"
seed="${2:-1}"
out="$root/.bench_build/detcheck"
mkdir -p "$out"
for i in 1 2; do
	bash "$root/perfbench/run.sh" --workload "$workload" --seed "$seed" --seconds 10 --trace 1 >"$out/$workload-$i.txt"
done
exec "$root/.bench_build/bin/perfbench" compare-counts "$out/$workload-1.txt" "$out/$workload-2.txt"
