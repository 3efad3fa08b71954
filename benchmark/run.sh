#!/usr/bin/env bash
# Runs all four workloads (timed run and layer pass in one process each)
# into OUT, then compares OUT with BASE when one is given:
#
#   benchmark/run.sh OUT_DIR [BASE_DIR]
#
# REPS (default 1) repeats every workload into OUT_DIR/rep<N>, which gives
# the comparer a run-to-run spread; SEED (default 1) seeds the generators.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
out=${1:?usage: run.sh OUT_DIR [BASE_DIR]}
base=${2:-}
export VOODOO_COMMIT=${VOODOO_COMMIT:-$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)}

for rep in $(seq 1 "${REPS:-1}"); do
	for workload in tpch-direct tpch-serve sql-short sql-concurrent; do
		bash "$here/bench.sh" --workload "$workload" --seed "${SEED:-1}" --trace 2 --out "$out/rep$rep"
	done
done
if [ -n "$base" ]; then
	bash "$here/bench.sh" --compare "$base" "$out"
fi
