#!/bin/sh
# The CI gate, fail-fast and in dependency order: cheap structural checks
# before expensive dynamic ones.
#
#   1. build       - everything compiles
#   2. vet         - stock go vet
#   3. lint        - cmd/dcnrlint project invariants (per-package +
#                    inter-procedural simtaint/lockflow, with per-analyzer
#                    timings) + gofmt cleanliness
#   4. lint-hot    - compiler-backed hotalloc gate: //hot:noalloc regions
#                    must be free of heap escapes per `go build -m`
#   5. apicheck    - exported facade API matches the reviewed api.txt
#   6. race        - full test suite under the race detector
#   7. test-obs    - focused race pass over telemetry + instrumented paths
#   8. bench-smoke - scripts/bench.sh smoke: the DES kernel benchmarks at
#                    0 allocs/op in steady state, and a short dcnrload
#                    ladder with error-free steps, nonzero qps, a generous
#                    p99 bound and cache hits on the repeated mix; gates
#                    only on machine-independent invariants, never on
#                    absolute timings
#   9. fuzz-smoke  - every Fuzz* target fuzzed for 5s past its seed
#                    corpus (the race and test steps only replay seeds)
#  10. test-health - focused race pass over the SLO engine and its wiring;
#                    on failure an elevated-run SLO report is dumped to
#                    health_slo_failure.json for triage
#
# Steps 3-6 are the layered defense for the Engine.Submit race class:
# lockflow flags unlocked DES-heap scheduling statically, in the same
# method or hidden behind helpers reachable from unlocked entry points,
# and the remediation concurrency tests catch it dynamically under -race.
#
# Usage: scripts/ci.sh
set -eu

cd "$(dirname "$0")/.."

step() {
	echo "==> ci: $1"
	shift
	"$@"
}

step build make build
step vet make vet
step lint make lint
step lint-hot make lint-hot
step apicheck make apicheck
step race make race
step test-obs make test-obs
step bench-smoke ./scripts/bench.sh smoke

# go test -fuzz takes one target in one package per run, so list every
# Fuzz* target with its package first.
fuzz_smoke() {
	go test -list '^Fuzz' ./... |
		awk '/^Fuzz/ { names[++n] = $1 } /^ok/ { for (i = 1; i <= n; i++) print $2, names[i]; n = 0 }' |
		while read -r pkg name; do
			echo "fuzz $pkg $name"
			go test -run '^$' -fuzz "^$name\$" -fuzztime 5s "$pkg" || exit 1
		done
}
step fuzz-smoke fuzz_smoke

# The health gate dumps a full /slo-shaped report from an elevated run on
# failure, so a broken alert pipeline leaves its state behind as an
# artifact instead of only a test log.
echo "==> ci: test-health"
if ! make test-health; then
	echo "==> ci: test-health failed; dumping elevated-run SLO report" >&2
	go run ./cmd/dcsim -seed 7 -elevate-year 2014 -elevate-factor 5 \
		-out "$(mktemp -d)" -health-out health_slo_failure.json >&2 || true
	echo "==> ci: SLO report at health_slo_failure.json" >&2
	exit 1
fi

echo "==> ci: all gates passed"
