#!/bin/sh
# Measure the project and record every number in one ledger,
# BENCH_ledger.json at the repo root, then enforce the performance gates
# against that ledger.
#
# Ledger schema: a "header" object (go, goos, goarch, cpus, commit, reps,
# benchtime) and a "rows" array with one row per line,
#
#   {"name": ..., "layer": ..., "metric": ..., "unit": ..., "value": ...}
#
# holding one number each, so grep/awk (and the gates below) key on
# (name, metric). The rows come from three passes:
#
#   - micro: one `go test -bench . -benchmem` over ./..., three rows per
#     benchmark (ns_op, b_op, allocs_op), layer = the package path;
#   - end-to-end: wall time of dcsim, repro and dcsweep variants (ms) and,
#     against the variant's baseline, overhead_pct or speedup;
#   - serve: dcnrload self-hosts dcnrd and replays the paper-figure query
#     mix at a concurrency ladder; each step gives qps, p50_ms, p99_ms,
#     cache_hit_rate and errors.
#
# End-to-end method: the variants interleave within each rep, so slow
# machine-load drift hits them alike; rep 0 is a warm-up (binary page-in,
# file cache) and is discarded; each variant is paired with its own rep's
# baseline run, adjacent in time, and the row holds the median of those
# paired numbers. The median ignores the one lucky or page-cache-cold run
# that a min or a mean would report, and pairing cancels drift that a
# ratio of cross-rep aggregates would keep, so an overhead_pct row does
# not equal the ratio of the two median ms rows.
#
# Gates (all read from the ledger; every failing gate is reported):
#
#   des     BenchmarkScheduleAndRun and BenchmarkObsScheduleAndRunInstrumented
#           run at 0 allocs/op (event pooling), and the instrumented loop is
#           >= 5x faster than the recorded pre-pooling 7821045 ns/op
#   dcsim   overhead_pct: metrics, timeline and health < 5%; journal < 5%
#           (15% on one CPU: the journal write cannot overlap the backbone
#           phase without a second core); trace < 15%. health_logged is
#           recorded but not gated
#   dcsweep every rep's report and run stream byte-identical to the warm-up
#           rep's 1-worker output; 8-over-1 speedup >= 4 with >= 8 CPUs,
#           else >= 0.85 (the pool cannot outrun the machine)
#   serve   every step 0 errors, qps > 0, p99 <= 5000 ms, cache hits > 0
#
# Usage: scripts/bench.sh [smoke]
#   smoke  quick CI mode, no ledger written: the des allocation gate at
#          -benchtime 20x and the serve gates on a 1,2 ladder of 200
#          requests over 2000 reports; machine-independent gates only
set -eu

cd "$(dirname "$0")/.."

REPS=5
BENCHTIME=200ms
DES_BASELINE_NS=7821045
SWEEP="-seed-base 1 -runs 16 -scales 1 -scenarios baseline"

# Each end-to-end variant, in run order within a rep, as
# name[:baseline:metric] for the paired statistic against its baseline.
VARIANTS="
dcsim/baseline
dcsim/metrics:dcsim/baseline:overhead_pct
dcsim/timeline:dcsim/baseline:overhead_pct
dcsim/journal:dcsim/baseline:overhead_pct
dcsim/trace:dcsim/baseline:overhead_pct
dcsim/health:dcsim/baseline:overhead_pct
dcsim/health_logged:dcsim/baseline:overhead_pct
repro/baseline
repro/metrics:repro/baseline:overhead_pct
dcsweep/workers_1
dcsweep/workers_8:dcsweep/workers_1:speedup
"

case "$*" in
"") MODE=full STEPS=1,2,4,8 REQUESTS=400 REPORTS=5000 ;;
smoke) MODE=smoke STEPS=1,2 REQUESTS=200 REPORTS=2000 ;;
*) echo "usage: scripts/bench.sh [smoke]" >&2; exit 2 ;;
esac

BIN="$(mktemp -d)"
WORK="$(mktemp -d)"
trap 'rm -rf "$BIN" "$WORK"' EXIT
LEDGER="$WORK/ledger.json"
ROWS="$WORK/rows"
: >"$ROWS"
CPUS="$(nproc 2>/dev/null || echo 1)"

# to_rows turns "name layer metric unit value" lines into ledger rows.
to_rows() {
	awk '{ printf "{\"name\": \"%s\", \"layer\": \"%s\", \"metric\": \"%s\", \"unit\": \"%s\", \"value\": %s}\n", $1, $2, $3, $4, $5 }' >>"$ROWS"
}

# micro BENCH BENCHTIME PKG... runs the matching benchmarks and records
# ns_op, b_op and allocs_op rows for each.
micro() {
	pattern=$1 benchtime=$2
	shift 2
	echo "micro: go test -bench '$pattern' -benchtime $benchtime $*" >&2
	go test -run '^$' -bench "$pattern" -benchmem -benchtime "$benchtime" "$@" >"$WORK/micro.txt" 2>&1 ||
		{ cat "$WORK/micro.txt" >&2; echo "FAIL: go test -bench failed" >&2; exit 1; }
	awk '
		/^pkg:/ { layer = $2 }
		/^Benchmark/ {
			name = $1
			sub(/-[0-9]+$/, "", name) # the -GOMAXPROCS suffix, absent at 1
			for (i = 3; i < NF; i++) {
				if ($(i + 1) == "ns/op") print name, layer, "ns_op", "ns/op", $i
				if ($(i + 1) == "B/op") print name, layer, "b_op", "B/op", $i
				if ($(i + 1) == "allocs/op") print name, layer, "allocs_op", "allocs/op", $i
			}
		}
	' "$WORK/micro.txt" | to_rows
}

# run VARIANT runs one end-to-end variant, writing under $WORK/VARIANT.
run() {
	out="$WORK/$1"
	case "$1" in
	dcsim/baseline) "$BIN/dcsim" -seed 1 -out "$out/data" ;;
	dcsim/metrics) "$BIN/dcsim" -seed 1 -out "$out/data" -metrics-out "$out/metrics.json" ;;
	dcsim/timeline) "$BIN/dcsim" -seed 1 -out "$out/data" -timeline "$out/timeline.jsonl" ;;
	dcsim/journal) "$BIN/dcsim" -seed 1 -out "$out/data" -journal "$out/journal.jsonl" ;;
	dcsim/trace) "$BIN/dcsim" -seed 1 -out "$out/data" -trace "$out/trace.json" ;;
	dcsim/health) "$BIN/dcsim" -seed 1 -out "$out/data" -health-out "$out/health.json" ;;
	dcsim/health_logged) "$BIN/dcsim" -seed 1 -out "$out/data" -health-out "$out/health.json" -log-level warn -log-format json ;;
	repro/baseline) "$BIN/repro" -seed 1 ;;
	repro/metrics) "$BIN/repro" -seed 1 -metrics-addr 127.0.0.1:0 ;;
	dcsweep/workers_1) "$BIN/dcsweep" $SWEEP -workers 1 -out "$out/report.json" -runs-out "$out/runs.jsonl" ;;
	dcsweep/workers_8) "$BIN/dcsweep" $SWEEP -workers 8 -out "$out/report.json" -runs-out "$out/runs.jsonl" ;;
	esac
}

now_ms() { date +%s%N | awk '{ printf "%.3f", $1 / 1000000 }'; }

# time_ms CMD... prints CMD's wall time in ms, failing if CMD fails.
time_ms() {
	start=$(now_ms)
	"$@" >/dev/null 2>&1 || { echo "FAIL: $* exited non-zero" >&2; return 1; }
	end=$(now_ms)
	awk -v a="$start" -v b="$end" 'BEGIN { printf "%.3f", b - a }'
}

# end_to_end times every variant over a warm-up rep plus REPS reps and
# records the median ms and paired-median rows.
end_to_end() {
	for cmd in dcsim repro dcsweep; do
		go build -o "$BIN/$cmd" "./cmd/$cmd"
	done
	for spec in $VARIANTS; do
		mkdir -p "$WORK/${spec%%:*}"
	done
	i=0
	while [ "$i" -le "$REPS" ]; do
		if [ "$i" -eq 0 ]; then echo "end-to-end: warm-up rep (discarded)" >&2; else echo "end-to-end: rep $i/$REPS" >&2; fi
		for spec in $VARIANTS; do
			v=${spec%%:*}
			ms=$(time_ms run "$v")
			echo "$i $v $ms" >>"$WORK/samples"
		done
		# Worker count affects wall time only, never output.
		if [ "$i" -eq 0 ]; then
			cp "$WORK/dcsweep/workers_1/report.json" "$WORK/ref.report.json"
			cp "$WORK/dcsweep/workers_1/runs.jsonl" "$WORK/ref.runs.jsonl"
		fi
		for w in 1 8; do
			for f in report.json runs.jsonl; do
				cmp -s "$WORK/ref.$f" "$WORK/dcsweep/workers_$w/$f" ||
					{ echo "FAIL: dcsweep -workers $w rep $i $f differs from the warm-up rep's -workers 1 output" >&2; exit 1; }
			done
		done
		i=$((i + 1))
	done
	awk -v variants="$VARIANTS" '
		function add(key, x) { vals[key, ++cnt[key]] = x }
		function median(key, k, i, j, t, a) {
			k = cnt[key]
			for (i = 1; i <= k; i++) a[i] = vals[key, i]
			for (i = 2; i <= k; i++) for (j = i; j > 1 && a[j - 1] > a[j]; j--) { t = a[j]; a[j] = a[j - 1]; a[j - 1] = t }
			return k % 2 ? a[(k + 1) / 2] : (a[k / 2] + a[k / 2 + 1]) / 2
		}
		$1 > 0 { ms[$1, $2] = $3; reps[$1] }
		END {
			n = split(variants, specs)
			for (s = 1; s <= n; s++) {
				split(specs[s], f, ":")
				v = f[1]; base = f[2]; stat = f[3]
				layer = "dcnr/cmd/" substr(v, 1, index(v, "/") - 1)
				for (r in reps) {
					add(v, ms[r, v])
					if (stat == "overhead_pct") add(v ":" stat, (ms[r, v] - ms[r, base]) / ms[r, base] * 100)
					if (stat == "speedup") add(v ":" stat, ms[r, base] / ms[r, v])
				}
				printf "%s %s ms ms %.3f\n", v, layer, median(v)
				if (stat == "overhead_pct") printf "%s %s overhead_pct %% %.2f\n", v, layer, median(v ":" stat)
				if (stat == "speedup") printf "%s %s speedup x %.3f\n", v, layer, median(v ":" stat)
			}
		}
	' "$WORK/samples" | to_rows
}

# serve runs the dcnrload ladder and records one row per step metric.
serve() {
	go build -o "$BIN/dcnrload" ./cmd/dcnrload
	echo "serve: dcnrload -steps $STEPS -requests $REQUESTS -reports $REPORTS" >&2
	"$BIN/dcnrload" -steps "$STEPS" -requests "$REQUESTS" -reports "$REPORTS" -out "$WORK/serve.json"
	awk -F'[:,]' '
		BEGIN { unit["qps"] = "1/s"; unit["p50_ms"] = unit["p99_ms"] = "ms"; unit["cache_hit_rate"] = "ratio"; unit["errors"] = "count" }
		{ key = $1; val = $2; gsub(/[ "]/, "", key); gsub(/ /, "", val) }
		key == "concurrency" { c = val }
		key in unit { print "dcnrload/c" c, "dcnr/cmd/dcnrload", key, unit[key], val }
	' "$WORK/serve.json" | to_rows
}

write_ledger() {
	{
		printf '{\n  "header": {"go": "%s", "goos": "%s", "goarch": "%s", "cpus": %s, "commit": "%s", "reps": %s, "benchtime": "%s"},\n' \
			"$(go env GOVERSION)" "$(go env GOOS)" "$(go env GOARCH)" "$CPUS" \
			"$(git rev-parse HEAD 2>/dev/null || echo unknown)" "$REPS" "$BENCHTIME"
		printf '  "rows": [\n'
		sed -e 's/^/    /' -e '$!s/$/,/' "$ROWS"
		printf '  ]\n}\n'
	} >"$LEDGER"
}

FAILED=0

# gate NAME METRIC OP LIMIT [WHY] checks the ledger row (NAME, METRIC)
# against "value OP LIMIT", recording a failure if it does not hold.
gate() {
	v=$(awk -F'"' -v n="$1" -v m="$2" '$2 == "name" && $4 == n && $12 == m { v = $19; gsub(/[ :},]/, "", v); print v; exit }' "$LEDGER")
	if [ -n "$v" ] && awk -v v="$v" -v lim="$4" "BEGIN { exit !(v $3 lim) }"; then
		echo "ok   $1 $2 = $v ($3 $4)" >&2
	else
		echo "FAIL $1 $2 = ${v:-missing}, want $3 $4${5:+ ($5)}" >&2
		FAILED=1
	fi
}

if [ "$MODE" = smoke ]; then
	micro 'BenchmarkScheduleAndRun$|BenchmarkObsScheduleAndRunInstrumented$' 20x ./internal/des/
else
	micro . "$BENCHTIME" ./...
	end_to_end
fi
serve
write_ledger
if [ "$MODE" = full ]; then
	cp "$LEDGER" BENCH_ledger.json
	echo "wrote BENCH_ledger.json ($(wc -l <"$ROWS") rows)" >&2
fi

for b in BenchmarkScheduleAndRun BenchmarkObsScheduleAndRunInstrumented; do
	gate "$b" allocs_op == 0 "event pooling regressed"
done
for c in $(echo "$STEPS" | tr , ' '); do
	gate "dcnrload/c$c" errors == 0
	gate "dcnrload/c$c" qps '>' 0
	gate "dcnrload/c$c" p99_ms '<=' 5000
	gate "dcnrload/c$c" cache_hit_rate '>' 0 "no cache hits on the repeated mix"
done
if [ "$MODE" = full ]; then
	gate BenchmarkObsScheduleAndRunInstrumented ns_op '<=' $((DES_BASELINE_NS / 5)) "5x below the recorded $DES_BASELINE_NS ns/op"
	gate dcsim/metrics overhead_pct '<' 5
	gate dcsim/timeline overhead_pct '<' 5
	gate dcsim/journal overhead_pct '<' "$([ "$CPUS" -le 1 ] && echo 15 || echo 5)"
	gate dcsim/trace overhead_pct '<' 15
	gate dcsim/health overhead_pct '<' 5
	gate dcsweep/workers_8 speedup '>=' "$([ "$CPUS" -ge 8 ] && echo 4 || echo 0.85)"
fi

[ "$FAILED" -eq 0 ] || { echo "bench: gates failed" >&2; exit 1; }
echo "bench $MODE: all gates passed" >&2
