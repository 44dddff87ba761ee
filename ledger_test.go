package dcnr_test

// Schema check for the checked-in benchmark ledger that scripts/bench.sh
// writes (`make bench`). The script's gates look rows up by (name, metric);
// this test fails when a gated row goes missing or is renamed without its
// gate moving along, before anyone has to rerun the benchmarks to notice.

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// ledgerGated lists every (name, metric) row a bench.sh gate reads.
var ledgerGated = [][2]string{
	{"BenchmarkScheduleAndRun", "allocs_op"},
	{"BenchmarkScheduleAndRun", "ns_op"},
	{"BenchmarkObsScheduleAndRunInstrumented", "allocs_op"},
	{"BenchmarkObsScheduleAndRunInstrumented", "ns_op"},
	{"dcsim/metrics", "overhead_pct"},
	{"dcsim/timeline", "overhead_pct"},
	{"dcsim/journal", "overhead_pct"},
	{"dcsim/trace", "overhead_pct"},
	{"dcsim/health", "overhead_pct"},
	{"dcsweep/workers_8", "speedup"},
}

// ledgerServeSteps is the dcnrload concurrency ladder of a full run.
var ledgerServeSteps = []string{"1", "2", "4", "8"}

func TestBenchLedgerSchema(t *testing.T) {
	data, err := os.ReadFile("BENCH_ledger.json")
	if err != nil {
		t.Fatal(err)
	}
	var ledger struct {
		Header map[string]json.RawMessage `json:"header"`
		Rows   []struct {
			Name, Layer, Metric, Unit string
			Value                     float64
		} `json:"rows"`
	}
	if err := json.Unmarshal(data, &ledger); err != nil {
		t.Fatal(err)
	}
	for _, field := range []string{"go", "goos", "goarch", "cpus", "commit", "reps", "benchtime"} {
		if _, ok := ledger.Header[field]; !ok {
			t.Errorf("header lacks %q", field)
		}
	}

	seen := make(map[[2]string]bool, len(ledger.Rows))
	for _, r := range ledger.Rows {
		key := [2]string{r.Name, r.Metric}
		if r.Name == "" || r.Layer == "" || r.Metric == "" || r.Unit == "" {
			t.Errorf("row %v has an empty field", r)
		}
		if seen[key] {
			t.Errorf("duplicate row %v", key)
		}
		seen[key] = true
		if math.IsNaN(r.Value) || math.IsInf(r.Value, 0) {
			t.Errorf("row %v value %v is not finite", key, r.Value)
		}
	}

	gated := ledgerGated
	for _, c := range ledgerServeSteps {
		for _, m := range []string{"errors", "qps", "p99_ms", "cache_hit_rate"} {
			gated = append(gated, [2]string{"dcnrload/c" + c, m})
		}
	}
	for _, key := range gated {
		if !seen[key] {
			t.Errorf("gated row %v missing from BENCH_ledger.json", key)
		}
	}
}
