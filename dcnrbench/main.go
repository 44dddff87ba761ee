// Command dcnrbench is the repository benchmark. It drives the program
// from outside, through its public functions, on one of four workloads,
// checks the outputs, and prints every metric BENCHMARK.json names:
//
//	bash dcnrbench/run.sh --workload intradc --seed 1 --seconds 20 --trace 0
//
// The workloads:
//
//   - intradc: dcsweep-style campaigns of the baseline scenario at scale 5
//     (remediation masks ~99% of faults, so the DES kernel and the repair
//     engine do the work).
//   - noremed: the same campaigns with remediation off at scale 1 (the
//     §5.6 ablation: ~94% of faults escalate, so the incident path and
//     SEV ingest do the work).
//   - backbone: SimulateBackbone at its default config, the §6 analyses,
//     the claims verifier and the tickets.txt archive (the ticket text
//     round trip, Format then Parse, is over half of the wall time).
//   - serve: an in-process dcnrd daemon on loopback, driven closed-loop
//     over two connections with a zipf read mix three times the cache
//     size and an ingest every ~200th request.
//
// With --trace 0 a run measures the end-to-end metrics with tracing off.
// With --trace 1 it composes each layer's public calls itself, records a
// span around each call (written to .bench_build/spans/), and reports the
// per-layer metrics plus each layer's self time; it also runs the same
// composed calls untraced, to report the tracing overhead.
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; the line before it is the
// run header (Go version, CPUs, commit, seed, sample counts). The process
// exits 1 when any output check fails.
//
// Subcommands:
//
//	dcnrbench compare PARENT_DIR CHANGE_DIR   judge two result sets
//	dcnrbench pin FROM TO                     regenerate pins.json
//	dcnrbench serve-input SEED                the serve workload's inputs
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench is one run of one workload.
type bench struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	start    time.Time

	tally   tally
	metrics map[string]metric
	// timings records the sample count behind each reported percentile.
	timings map[string]timing
	// notes are workload facts for the run header (shares, counts).
	notes map[string]any
	spans *tracer
}

// deadline is when the measured phase must stop starting new work.
func (b *bench) deadline() time.Time {
	return time.Now().Add(time.Duration(b.seconds) * time.Second)
}

// budget ends a loop of traced passes near the deadline: it always
// allows the first pass, and no pass expected to end after the deadline.
type budget struct {
	end, start time.Time
	last       time.Duration
}

func (b *bench) budget() *budget { return &budget{end: b.deadline()} }

// next reports whether pass i may start.
func (g *budget) next(i int) bool {
	if i > 0 {
		g.last = time.Since(g.start)
	}
	g.start = time.Now()
	return i == 0 || g.start.Add(g.last).Before(g.end)
}

func (b *bench) set(name string, v float64) {
	unit, ok := metricUnits[name]
	if !ok {
		panic("dcnrbench: metric not declared: " + name)
	}
	b.metrics[name] = metric{Value: v, Unit: unit}
}

// workloads maps each workload name to its runner. A runner returns an
// error only when it cannot run at all; failed operations and checks go
// into the bench's tally.
var workloads = map[string]func(*bench) error{
	"intradc":  runIntra,
	"noremed":  runIntra,
	"backbone": runBackbone,
	"serve":    runServe,
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "compare":
			os.Exit(compareMain(os.Args[2:], os.Stdout))
		case "pin":
			exitOn(pinMain(os.Args[2:]))
			return
		case "serve-input":
			exitOn(serveInputMain(os.Args[2:]))
			return
		}
	}
	var (
		name    = flag.String("workload", "", "workload: intradc, noremed, backbone or serve")
		seed    = flag.Uint64("seed", 1, "workload seed; the simulation seeds derive from it")
		seconds = flag.Int("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: dcnrbench --workload intradc|noremed|backbone|serve --seed N --seconds N --trace 0|1")
		os.Exit(2)
	}
	b := &bench{
		workload: *name, seed: *seed, seconds: *seconds, trace: *trace == 1,
		start: time.Now(), metrics: map[string]metric{},
		timings: map[string]timing{}, notes: map[string]any{},
	}
	if b.trace {
		b.spans = newTracer()
	}
	if err := run(b); err != nil {
		exitOn(fmt.Errorf("%s: %w", b.workload, err))
	}
	if err := b.finish(os.Stdout); err != nil {
		exitOn(err)
	}
	if b.tally.failed > 0 {
		os.Exit(1)
	}
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcnrbench:", err)
		os.Exit(1)
	}
}

// finish fills in the metrics every workload reports, checks that the
// run produced exactly the declared set, and prints the header and the
// result line.
func (b *bench) finish(w *os.File) error {
	want := endToEnd
	if b.trace {
		want = perLayer
		for _, m := range perLayer {
			// A layer the workload never calls reports zero work.
			if _, ok := b.metrics[m.name]; !ok {
				b.set(m.name, 0)
			}
		}
		if err := writeSpans(filepath.Join(".bench_build", "spans",
			fmt.Sprintf("%s-seed%d.json", b.workload, b.seed)), b.spans.spans); err != nil {
			return fmt.Errorf("writing spans: %w", err)
		}
	} else {
		rss, err := peakRSSMB()
		if err != nil {
			return err
		}
		b.set("peak_rss_mb", rss)
		b.set("ok_ratio", 1-float64(b.tally.failed)/float64(max(b.tally.attempted, 1)))
	}
	var missing []string
	for _, m := range want {
		if _, ok := b.metrics[m.name]; !ok {
			missing = append(missing, m.name)
		}
	}
	if len(missing) > 0 || len(b.metrics) != len(want) {
		return fmt.Errorf("%s produced metrics %v, missing %v", b.workload, keys(b.metrics), missing)
	}
	for _, n := range b.tally.notes {
		fmt.Fprintln(os.Stderr, "dcnrbench: check failed:", n)
	}
	header := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.trace,
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"commit":     commit(),
		"op_meaning": opMeaning[b.workload],
		"timings":    b.timings,
		"notes":      b.notes,
		"wall_s":     time.Since(b.start).Seconds(),
	}
	enc := json.NewEncoder(w)
	if err := enc.Encode(map[string]any{"header": header}); err != nil {
		return err
	}
	return enc.Encode(result{
		Correct:   b.tally.failed == 0,
		Attempted: max(b.tally.attempted, 1),
		Failed:    b.tally.failed,
		Metrics:   b.metrics,
	})
}

// commit is the commit the benchmark was built from, as run.sh found it.
func commit() string {
	if c := strings.TrimSpace(os.Getenv("DCNRBENCH_COMMIT")); c != "" {
		return c
	}
	return "unknown"
}

func keys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
