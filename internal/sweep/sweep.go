// Package sweep is the scenario-sweep campaign engine: it fans a grid of
// simulation runs — seed × scale × scenario — across a bounded worker
// pool, streams per-run summary statistics out as JSONL, and aggregates
// the paper's key statistics (per-device-type incident rates, root-cause
// mix, MTBF, resolution times, repair ratios, edge availability) into
// cross-run mean/p5/p95 bands.
//
// The paper's every headline number is a point estimate from one observed
// history; a sweep quantifies the run-to-run variance a reproduction
// should report alongside it. Design constraints:
//
//   - Bounded memory. A run's SEV store is reduced to a small RunStats
//     record on the worker that produced it and then dropped, so a
//     100-run campaign never holds 100 stores.
//   - Full isolation. Every run builds its own simulator, fleet, and
//     seeded RNG source (simrand.NewSource(seed) per driver), plus its
//     own metrics registry when the campaign is instrumented — workers
//     share nothing but the result slice.
//   - Deterministic output. Runs are expanded, numbered, streamed, and
//     aggregated in grid order regardless of which worker finishes first,
//     so the same grid yields byte-identical reports at any worker count.
package sweep

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"

	"dcnr/internal/backbone"
	"dcnr/internal/core"
	"dcnr/internal/faults"
	"dcnr/internal/obs"
	"dcnr/internal/obs/timeline"
	"dcnr/internal/observe"
	"dcnr/internal/sim"
)

// Scenario is one named variant of the intra-DC simulation: the baseline,
// the §5.6 no-remediation ablation, an -elevate-* burn drill, or any year
// slice of the study period.
type Scenario struct {
	// Name labels the scenario in results and reports; names must be
	// unique within a campaign.
	Name string `json:"name"`
	// DisableRemediation turns off the automated repair engine (§5.6).
	DisableRemediation bool `json:"disable_remediation,omitempty"`
	// ElevateYear and ElevateFactor (> 1) multiply one year's fault
	// arrival rate — the burn-drill anomaly.
	ElevateYear   int     `json:"elevate_year,omitempty"`
	ElevateFactor float64 `json:"elevate_factor,omitempty"`
	// FromYear and ToYear bound the simulated years; zero values mean the
	// full study period.
	FromYear int `json:"from_year,omitempty"`
	ToYear   int `json:"to_year,omitempty"`
}

// DefaultScenarios returns the standard campaign: the baseline study
// period, the §5.6 no-remediation ablation, and a 5× burn drill in 2014.
func DefaultScenarios() []Scenario {
	return []Scenario{
		{Name: "baseline"},
		{Name: "no-remediation", DisableRemediation: true},
		{Name: "elevate-2014x5", ElevateYear: 2014, ElevateFactor: 5},
	}
}

// Config parameterizes a sweep campaign.
type Config struct {
	// Observe bundles the campaign-level observability wiring. Metrics
	// receives the sweep_* counters and gauges; Trace records one span
	// per run with a lane per pool worker; Logger gets one progress
	// record per completed run. Health is not wired — runs have
	// independent simulation clocks, so a shared health engine would
	// interleave unrelated histories; instrument single runs instead.
	observe.Observe
	// Seeds are the RNG roots to sweep. Every (scenario, scale, seed)
	// cell becomes one run; a campaign needs at least one seed.
	Seeds []uint64
	// Scales are the fleet scales to sweep. Empty means [1].
	Scales []int
	// Scenarios are the simulation variants to sweep. Empty means
	// [{Name: "baseline"}].
	Scenarios []Scenario
	// Workers bounds the worker pool; <= 0 means one per CPU. Validate
	// clamps it to runtime.GOMAXPROCS(0): each run is CPU-bound, so
	// oversubscribing the machine only adds scheduler churn (measured ~12%
	// slower with 8 workers on a 1-CPU box) without changing output.
	Workers int
	// Backbone, when true, adds an inter-DC leg to every run: a backbone
	// simulation at the run's seed (edges scaled by the run's scale)
	// whose edge availability and MTBF/MTTR medians join the run's
	// statistics.
	Backbone bool
	// Results, when non-nil, receives one JSON line per completed run
	// (a RunStats record), streamed in run order as soon as each run's
	// predecessor lines are flushed.
	Results io.Writer
	// Journal, when non-nil, receives every run's causal incident journal
	// as JSONL in run order: a header line per run ({"run":N,...}) followed
	// by the run's records. Like Results, the stream is byte-identical at
	// any worker count.
	Journal io.Writer
	// Timeline, when non-nil, receives every run's metric timeline as
	// JSONL in run order: a header line per run ({"run":N,...}) followed
	// by the run's samples on the sim-time cadence grid. Like Results,
	// the stream is byte-identical at any worker count.
	Timeline io.Writer
	// TimelineCadence is the per-run sampling cadence in sim-hours;
	// <= 0 selects the timeline default (24, one grid point per
	// simulated day).
	TimelineCadence float64
	// Status, when non-nil, is updated live as runs start and finish; serve
	// Status.Handler to watch the campaign from outside. Status only adds
	// progress accounting — sweep_report.json is unchanged by it.
	Status *Status
}

// Validate normalizes the campaign in place — default scales and
// scenarios, scenario year bounds resolved to the study period — and
// rejects what cannot run: no seeds, non-positive scales, duplicate or
// empty scenario names, or a scenario whose own simulation config fails
// sim.IntraConfig.Validate.
func (c *Config) Validate() error {
	if len(c.Seeds) == 0 {
		return fmt.Errorf("sweep: no seeds configured")
	}
	if max := runtime.GOMAXPROCS(0); c.Workers > max {
		c.Workers = max
	}
	if len(c.Scales) == 0 {
		c.Scales = []int{1}
	}
	for _, s := range c.Scales {
		if s <= 0 {
			return fmt.Errorf("sweep: Scale must be positive, got %d", s)
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = []Scenario{{Name: "baseline"}}
	}
	seen := make(map[string]bool, len(c.Scenarios))
	for i := range c.Scenarios {
		sc := &c.Scenarios[i]
		if sc.Name == "" {
			return fmt.Errorf("sweep: scenario %d has no name", i)
		}
		if seen[sc.Name] {
			return fmt.Errorf("sweep: duplicate scenario name %q", sc.Name)
		}
		seen[sc.Name] = true
		// Normalize and check through the simulation config itself, so a
		// sweep rejects exactly what a single run would.
		probe := sc.intraConfig(c.Seeds[0], c.Scales[0])
		if err := probe.Validate(); err != nil {
			return fmt.Errorf("sweep: scenario %q: %w", sc.Name, err)
		}
		sc.FromYear, sc.ToYear = probe.FromYear, probe.ToYear
	}
	return nil
}

// intraConfig builds the simulation config for one grid cell.
func (s Scenario) intraConfig(seed uint64, scale int) sim.IntraConfig {
	return sim.IntraConfig{
		Seed:               seed,
		Scale:              scale,
		FromYear:           s.FromYear,
		ToYear:             s.ToYear,
		DisableRemediation: s.DisableRemediation,
		ElevateYear:        s.ElevateYear,
		ElevateFactor:      s.ElevateFactor,
	}
}

// runSpec is one expanded grid cell.
type runSpec struct {
	run      int
	scenario Scenario
	seed     uint64
	scale    int
}

// expand enumerates the grid in deterministic order: scenarios outermost,
// then scales, then seeds — so all of a scenario's runs are numbered
// contiguously and paired-seed comparisons line up across scenarios.
func (c *Config) expand() []runSpec {
	specs := make([]runSpec, 0, len(c.Scenarios)*len(c.Scales)*len(c.Seeds))
	for _, sc := range c.Scenarios {
		for _, scale := range c.Scales {
			for _, seed := range c.Seeds {
				specs = append(specs, runSpec{run: len(specs), scenario: sc, seed: seed, scale: scale})
			}
		}
	}
	return specs
}

// Result is a completed campaign: the aggregated report, every per-run
// record, and the merged telemetry of all instrumented runs.
type Result struct {
	// Report is the cross-run aggregation, ready for WriteReport.
	Report Report
	// Runs holds one RunStats per grid cell, in run order.
	Runs []RunStats
	// Metrics is the merge of every run's private registry (plus nothing
	// else — the campaign registry passed via Observe.Metrics stays
	// separate so sweep_* bookkeeping never pollutes simulation metrics).
	// Zero when the campaign was uninstrumented.
	Metrics obs.Snapshot
}

// WriteReport writes the campaign report as deterministically-ordered,
// indented JSON: the same grid produces byte-identical output at any
// worker count.
func (r *Result) WriteReport(w io.Writer) error {
	data, err := json.MarshalIndent(&r.Report, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Run executes the campaign: every grid cell across the worker pool, the
// JSONL stream to cfg.Results, and the final aggregation. The returned
// error is the failing run with the lowest index (every run is attempted
// even when an earlier one fails, matching core.RunLimit).
func Run(cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	specs := cfg.expand()
	o := cfg.Observe

	var (
		mRuns     = o.Metrics.Counter("sweep_runs_total")
		mFailures = o.Metrics.Counter("sweep_run_failures_total")
		mFaults   = o.Metrics.Counter("sweep_faults_total")
		mIncs     = o.Metrics.Counter("sweep_incidents_total")
		gWorkers  = o.Metrics.Gauge("sweep_active_workers")
	)

	out := newEmitter(len(specs), cfg.Results, cfg.Journal, cfg.Timeline)
	// A journal stream or a live status table both need per-run journals;
	// either alone turns journaling on for every run.
	journaling := cfg.Journal != nil || cfg.Status != nil
	// A private registry per run: for campaign-level metric merging, for
	// the timeline sampler's series, and for Status's per-run resource
	// attribution (events processed). Any of the three turns it on.
	instrument := o.Metrics != nil || cfg.Timeline != nil || cfg.Status != nil
	cfg.Status.begin(specs)
	results := make([]RunStats, len(specs))
	var (
		mergedMu sync.Mutex
		merged   obs.Snapshot
	)

	runOne := func(i int) error {
		gWorkers.Add(1)
		defer gWorkers.Add(-1)
		spec := specs[i]
		probe := beginProbe()

		// Per-run isolated telemetry: a private registry per run (when
		// the campaign is instrumented at all), merged after the run so
		// concurrent runs never share a counter.
		var reg *obs.Registry
		if instrument {
			reg = obs.NewRegistry()
		}
		icfg := spec.scenario.intraConfig(spec.seed, spec.scale)
		icfg.Observe = observe.Observe{Metrics: reg}
		if journaling {
			icfg.Observe.Journal = faults.NewJournal()
		}
		if cfg.Timeline != nil {
			icfg.Observe.Timeline = timeline.New(cfg.TimelineCadence)
		}
		res, err := sim.IntraDC(icfg)
		if err != nil {
			mFailures.Inc()
			return fmt.Errorf("sweep: run %d (%s seed %d scale %d): %w",
				spec.run, spec.scenario.Name, spec.seed, spec.scale, err)
		}
		stats := intraStats(spec, res)
		res = nil // the SEV store is reduced; let the worker drop it

		if cfg.Backbone {
			bcfg := backbone.DefaultConfig()
			bcfg.Seed = spec.seed
			bcfg.Edges *= spec.scale
			bcfg.Observe = observe.Observe{Metrics: reg}
			bres, err := sim.Backbone(bcfg)
			if err != nil {
				mFailures.Inc()
				return fmt.Errorf("sweep: run %d backbone (seed %d): %w", spec.run, spec.seed, err)
			}
			addBackboneStats(&stats, bres.Analysis)
		}

		var events int64
		if reg != nil {
			snap := reg.Snapshot()
			events = snap.Counters["des_events_fired_total"]
			// Campaign-level merging only when the caller asked for
			// metrics; a registry created just for attribution or
			// timeline sampling stays private to its run.
			if o.Metrics != nil {
				mergedMu.Lock()
				mergeErr := merged.Merge(snap)
				mergedMu.Unlock()
				if mergeErr != nil {
					return fmt.Errorf("sweep: run %d: merging metrics: %w", spec.run, mergeErr)
				}
			}
		}
		results[i] = stats
		mRuns.Inc()
		mFaults.Add(int64(stats.Faults))
		mIncs.Add(int64(stats.Incidents))
		var chunks [numStreams][]byte
		if cfg.Results != nil {
			line, err := json.Marshal(&stats)
			if err != nil {
				return fmt.Errorf("sweep: run %d: encoding result: %w", spec.run, err)
			}
			chunks[streamResults] = append(line, '\n')
		}
		if j := icfg.Observe.Journal; j != nil {
			// One index serves both the JSONL chunk and the summary; the
			// journal's records are assembled (merged across lanes) once.
			x := j.Index()
			if cfg.Journal != nil {
				// Serialize the run's journal as one chunk — a header line
				// naming the run, then the records.
				var buf bytes.Buffer
				fmt.Fprintf(&buf, "{\"run\":%d,\"scenario\":%q,\"seed\":%d,\"scale\":%d,\"records\":%d}\n",
					spec.run, spec.scenario.Name, spec.seed, spec.scale, x.Len())
				if err := x.WriteJSONL(&buf); err != nil {
					return fmt.Errorf("sweep: run %d: serializing journal: %w", spec.run, err)
				}
				chunks[streamJournal] = buf.Bytes()
			}
			cfg.Status.setJournal(i, x.Summary())
		}
		if tl := icfg.Observe.Timeline; tl != nil && cfg.Timeline != nil {
			// Serialize the run's timeline as one chunk — a header line
			// naming the run, then the samples.
			var buf bytes.Buffer
			fmt.Fprintf(&buf, "{\"run\":%d,\"scenario\":%q,\"seed\":%d,\"scale\":%d,\"samples\":%d}\n",
				spec.run, spec.scenario.Name, spec.seed, spec.scale, tl.Len())
			if err := tl.WriteJSONL(&buf); err != nil {
				return fmt.Errorf("sweep: run %d: serializing timeline: %w", spec.run, err)
			}
			chunks[streamTimeline] = buf.Bytes()
		}
		if err := out.emit(i, chunks); err != nil {
			return fmt.Errorf("sweep: run %d: %w", spec.run, err)
		}
		simHours := float64(spec.scenario.ToYear-spec.scenario.FromYear+1) * hoursPerYear
		cfg.Status.done(i, &stats, probe.end(events, simHours))
		if o.Logger != nil {
			o.Logger.Info("sweep run complete",
				"run", spec.run, "of", len(specs),
				"scenario", spec.scenario.Name,
				"seed", spec.seed, "scale", spec.scale,
				"faults", stats.Faults, "incidents", stats.Incidents)
		}
		return nil
	}
	task := func(i int) error {
		cfg.Status.start(i)
		if err := runOne(i); err != nil {
			cfg.Status.fail(i)
			return err
		}
		return nil
	}

	err := core.RunLimitTraced(cfg.Workers, len(specs), o.Trace, "sweep",
		func(i int) string {
			s := specs[i]
			return fmt.Sprintf("%s/seed%d/x%d", s.scenario.Name, s.seed, s.scale)
		}, task)
	cfg.Status.finish()
	// The stream errors join the run error instead of being masked by it:
	// a campaign that both lost a run and truncated its JSONL reports both,
	// and a clean-looking abort can no longer hide a broken stream.
	if err = errors.Join(err, out.flushErrs()); err != nil {
		return nil, err
	}
	return &Result{
		Report:  aggregate(cfg, results),
		Runs:    results,
		Metrics: merged,
	}, nil
}

// The output streams of a campaign, in emitter slot order.
const (
	streamResults = iota
	streamJournal
	streamTimeline
	numStreams
)

var streamNames = [numStreams]string{"results", "journal", "timeline"}

// emitter streams every run's output — its result line, journal chunk and
// timeline chunk — in run order no matter the completion order: run i's
// chunks are held until runs 0..i-1 have been emitted, so each stream is
// deterministic under concurrency while only out-of-order completions are
// buffered. A nil writer skips its stream.
type emitter struct {
	mu      sync.Mutex
	w       [numStreams]io.Writer
	err     [numStreams]error
	next    int
	pending map[int][numStreams][]byte
}

func newEmitter(n int, results, journal, timeline io.Writer) *emitter {
	return &emitter{
		w:       [numStreams]io.Writer{results, journal, timeline},
		pending: make(map[int][numStreams][]byte, n/8+1),
	}
}

// emit enqueues run i's chunks, one per stream, and flushes every run that
// is now contiguous. The first write error on a stream is sticky: the
// stream takes no more writes and every later emit returns the error, so
// one broken pipe fails the campaign instead of silently truncating the
// stream, while the other streams carry on. The chunks are retained until
// flushed; callers must not reuse them.
func (e *emitter) emit(i int, chunks [numStreams][]byte) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pending[i] = chunks
	for {
		c, ok := e.pending[e.next]
		if !ok {
			break
		}
		delete(e.pending, e.next)
		for s, w := range e.w {
			if w != nil && e.err[s] == nil && len(c[s]) > 0 {
				_, e.err[s] = w.Write(c[s])
			}
		}
		e.next++
	}
	return e.errsLocked("streaming")
}

// flushErrs collects the sticky stream errors, labeled by stream.
func (e *emitter) flushErrs() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.errsLocked("sweep: streaming")
}

func (e *emitter) errsLocked(label string) error {
	var errs []error
	for s, err := range e.err {
		if err != nil {
			errs = append(errs, fmt.Errorf("%s %s: %w", label, streamNames[s], err))
		}
	}
	return errors.Join(errs...)
}
