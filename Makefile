GO ?= go

.PHONY: build test vet lint lint-hot race verify ci bench test-obs test-health api apicheck

build:
	$(GO) build ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

# lint runs the project-invariant analyzers (cmd/dcnrlint): the
# per-package checks (simdeterminism, obsnilsafe, errchecklite)
# plus the inter-procedural module checks (simtaint, lockflow), with
# per-analyzer wall timings on stderr, and fails on any unformatted file.
lint:
	$(GO) run ./cmd/dcnrlint -time ./...
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi

# lint-hot additionally runs the compiler-backed hotalloc gate: every
# //hot:noalloc region (DES scheduler, SpanRing, journal lanes) must be
# free of compiler-reported heap escapes. Split from lint because it
# shells out to `go build -gcflags=-m` per annotated package.
lint-hot:
	$(GO) run ./cmd/dcnrlint -time -hot ./...

# api regenerates the exported-API golden file after an intentional
# surface change; apicheck fails when the facade's exported API drifts
# from the reviewed api.txt.
api:
	$(GO) run ./cmd/apidump > api.txt

apicheck:
	@$(GO) run ./cmd/apidump | diff -u api.txt - \
		|| { echo "exported API drifted from api.txt; review and run 'make api'"; exit 1; }

# race runs the full suite under the race detector — the new SEV store
# indexes must stay consistent under concurrent Add + Query.
race:
	$(GO) test -race ./...

# test-obs race-tests the telemetry package and every instrumented hot
# path: lock-free metric updates and concurrent trace emission must stay
# clean under the race detector.
test-obs:
	$(GO) test -race ./internal/obs/ ./internal/obs/health/ ./internal/obs/journal/ ./internal/obs/timeline/ ./internal/des/ ./internal/remediation/ ./internal/monitor/ ./internal/sev/ ./internal/core/

# test-health race-tests the streaming SLO engine and its end-to-end
# wiring: the engine package itself plus the facade scenarios (elevated
# burn drill, calibrated quiet run, backbone edge signal, report format).
test-health:
	$(GO) test -race ./internal/obs/health/ ./internal/notify/
	$(GO) test -race -run 'TestHealth|TestSLO|TestBackboneHealth' .

# verify is the tier-1 gate: vet, the static-analysis suite (including
# the hotalloc escape gate), and the race-enabled test suite (which
# includes the obs package and all instrumented packages).
verify: vet lint lint-hot apicheck race test-obs

# ci is the ordered gate for continuous integration:
# build -> vet -> lint -> apicheck -> race -> test-obs, fail-fast.
ci:
	./scripts/ci.sh

# bench runs scripts/bench.sh: every micro-benchmark, the end-to-end
# dcsim/repro/dcsweep variants and the dcnrload serve ladder, recorded in
# BENCH_ledger.json, then fails if any performance gate listed in the
# script's header does not hold, among them the < 5% dcsim health-engine
# overhead.
bench:
	./scripts/bench.sh
