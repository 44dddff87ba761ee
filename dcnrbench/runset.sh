#!/usr/bin/env bash
# Runs the benchmark once per workload and seed and keeps each run's
# standard output as a result set for `dcnrbench compare`:
#
#   bash dcnrbench/runset.sh OUT_DIR SEED...
#
# OUT_DIR/<workload>/<seed> holds one run's output. WORKLOADS (default:
# all four) and TRACE (default 0) select what runs; the run length is
# BENCHMARK.json's run_seconds. Run it from the repository root.
set -euo pipefail

out=${1:?usage: runset.sh OUT_DIR SEED...}
shift
seconds=$(sed -n 's/.*"run_seconds": *\([0-9][0-9]*\).*/\1/p' BENCHMARK.json)
for seed in "$@"; do
	for w in ${WORKLOADS:-intradc noremed backbone serve}; do
		mkdir -p "$out/$w"
		bash dcnrbench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
			--trace "${TRACE:-0}" >"$out/$w/$seed"
	done
done
