package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"dcnr"
	"dcnr/internal/core"
	"dcnr/internal/faults"
	"dcnr/internal/fleet"
	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/topology"
)

// leg is one intra-DC campaign shape: a sweep scenario at a fleet scale.
type leg struct {
	scenario dcnr.SweepScenario
	scale    int
}

// legs are the two intra-DC workloads. They drive the same layers in
// opposite ways: at baseline remediation masks ~99% of faults, so the
// DES kernel and the repair engine do the work; with remediation off
// nearly every fault escalates, so the incident path and SEV ingest do.
var legs = map[string]leg{
	"intradc": {dcnr.SweepScenario{Name: "baseline"}, 5},
	"noremed": {dcnr.SweepScenario{Name: "no-remediation", DisableRemediation: true}, 1},
}

// campaignRuns is the number of seeds in one campaign: two per worker on
// a two-CPU machine, so one slow run does not leave a worker idle for
// most of the campaign.
const campaignRuns = 4

// setupReps is how many times a run repeats its set-up to report the
// median set-up time.
const setupReps = 25

// simSeeds derives n simulation seeds from the workload seed. Adjacent
// workload seeds share seeds, so pins.json covers a range of workload
// seeds with few pinned cells.
func simSeeds(w uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = w + uint64(i)
	}
	return out
}

func campaignConfig(l leg, seeds []uint64) dcnr.SweepConfig {
	return dcnr.SweepConfig{
		Seeds:     seeds,
		Scales:    []int{l.scale},
		Scenarios: []dcnr.SweepScenario{l.scenario},
		Workers:   runtime.NumCPU(),
	}
}

// campaignOut is what one campaign produced.
type campaignOut struct {
	wall   time.Duration
	digest string // SHA-256 of the sweep report
	runs   []dcnr.SweepRunStats
	faults int
	incs   int
}

// campaign runs one sweep and digests its report as it is serialized,
// so serialization is timed and checked in one pass.
func campaign(cfg dcnr.SweepConfig) (campaignOut, error) {
	settle()
	start := time.Now()
	res, err := dcnr.Sweep(cfg)
	if err != nil {
		return campaignOut{}, err
	}
	h := sha256.New()
	if err := res.WriteReport(h); err != nil {
		return campaignOut{}, err
	}
	out := campaignOut{wall: time.Since(start), digest: hex.EncodeToString(h.Sum(nil)), runs: res.Runs}
	for _, r := range res.Runs {
		out.faults += r.Faults
		out.incs += r.Incidents
	}
	return out, nil
}

// checkCampaign compares a campaign's outputs with the pinned ones and,
// when first is set, with the run's first campaign (the program is
// deterministic, so every repeat must match).
func (b *bench) checkCampaign(c campaignOut, first *campaignOut) {
	key := pinKey(b.workload, b.seed)
	if want, ok := pins.Campaigns[key]; ok {
		b.tally.check(c.digest == want, "%s sweep report sha256 %s, pinned %s", key, c.digest, want)
	}
	if first != nil {
		b.tally.check(c.digest == first.digest, "%s sweep report differs between repeats", b.workload)
	}
	for _, r := range c.runs {
		if p, ok := pins.Cells[pinKey(b.workload, r.Seed)]; ok {
			b.tally.check(r.Faults == p.Faults && r.Incidents == p.Incidents,
				"%s seed %d: %d faults / %d incidents, pinned %d / %d",
				b.workload, r.Seed, r.Faults, r.Incidents, p.Faults, p.Incidents)
		}
	}
}

func runIntra(b *bench) error {
	l := legs[b.workload]
	seeds := simSeeds(b.seed, campaignRuns)
	b.notes["sim_seeds"] = seeds
	b.notes["scale"] = l.scale
	if b.trace {
		return traceIntra(b, l, seeds)
	}
	setups, err := timeEach(setupReps, func() error {
		cfg := campaignConfig(l, seeds)
		if err := cfg.Validate(); err != nil {
			return err
		}
		_, err := faults.NewDriver(fleet.New(l.scale), seeds[0])
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.set("setup_s", median(setups))

	cfg := campaignConfig(l, seeds)
	first, err := campaign(cfg) // warm-up, checked but not timed
	if !b.tally.op(err) {
		return fmt.Errorf("warm-up campaign: %w", err)
	}
	b.checkCampaign(first, &first)
	var perRun, rate []float64
	var simulated, escalated int
	g := b.budget()
	for i := 0; g.next(i); i++ {
		c, err := campaign(cfg)
		if !b.tally.op(err) {
			continue
		}
		b.checkCampaign(c, &first)
		perRun = append(perRun, ms(c.wall)/float64(len(c.runs)))
		rate = append(rate, float64(c.faults)/c.wall.Seconds())
		simulated += c.faults
		escalated += c.incs
	}
	if len(perRun) == 0 {
		return fmt.Errorf("no campaign finished in %ds", b.seconds)
	}
	b.set("op_ms", median(perRun))
	b.set("work_per_s", median(rate))
	b.timings["op_ms"] = describe(len(perRun), 50)
	b.notes["op_ms_samples"] = perRun
	b.notes["escalated_share"] = float64(escalated) / float64(simulated)
	b.notes["runs_per_campaign"] = len(first.runs)
	return nil
}

// cellOut is what one composed intra-DC cell produced and cost.
type cellOut struct {
	seed                 uint64
	digest               string // SHA-256 of sevs.json
	faults, incidents    int
	claimsPassed, claims int
	events               int64
	submitted, repaired  int64
	run, core, write     time.Duration
	alloc                runtimeStats
}

// composeCell runs one intra-DC simulation the way sim.IntraDC does, but
// calls each layer itself so tr can time it: fleet.New, faults.NewDriver,
// Driver.Run, core.NewIntraAnalysis and its accessors, Store.WriteJSON.
// With instrument set, the faults driver reports into a metrics registry whose
// counters the traced run reads.
func composeCell(tr *tracer, instrument bool, l leg, seed uint64) (cellOut, error) {
	out := cellOut{seed: seed}
	var reg *obs.Registry
	if instrument {
		reg = obs.NewRegistry()
	}
	tr.begin("fleet", "fleet.New")
	fl := fleet.New(l.scale)
	tr.end()

	tr.begin("faults", "faults.NewDriver")
	d, err := faults.NewDriver(fl, seed)
	if err == nil {
		if l.scenario.DisableRemediation {
			d.Engine.SetEnabled(false)
		}
		d.Observe(observe.Observe{Metrics: reg})
	}
	tr.end()
	if err != nil {
		return out, err
	}

	before := readRuntime()
	tr.begin("faults", "Driver.Run")
	store, err := d.Run(fleet.FirstYear, fleet.LastYear)
	out.run = tr.end()
	out.alloc = readRuntime().sub(before)
	if err != nil {
		return out, err
	}
	out.faults, out.incidents = d.Faults(), d.Incidents()

	tr.begin("core", "core.IntraAnalysis")
	a := core.NewIntraAnalysis(store, fl)
	readIntraAnalysis(a)
	for _, c := range a.VerifyIntraClaims() {
		out.claims++
		if c.Pass {
			out.claimsPassed++
		}
	}
	out.core = tr.end()

	tr.begin("sev", "Store.WriteJSON")
	h := sha256.New()
	err = store.WriteJSON(h)
	out.write = tr.end()
	if err != nil {
		return out, err
	}
	out.digest = hex.EncodeToString(h.Sum(nil))
	if reg != nil {
		c := reg.Snapshot().Counters
		out.events = c["des_events_fired_total"]
		out.submitted = c["remediation_submitted_total"]
		out.repaired = c["remediation_repaired_total"]
	}
	return out, nil
}

// readIntraAnalysis calls every §5 accessor for every simulated year.
func readIntraAnalysis(a *core.IntraAnalysis) {
	years := a.Years()
	a.RootCauseDistribution()
	a.RootCauseByDevice()
	a.SevRatePerDevice()
	a.SwitchesVsEmployees()
	a.IncidentFractions()
	a.DesignRate()
	a.PopulationBreakdown()
	a.P75IRTOverall()
	a.IRTvsScale()
	if len(years) > 0 {
		a.NormalizedIncidents(years[0])
		a.DesignIncidents(years[0])
	}
	for _, y := range years {
		a.IncidentRate(y)
		a.SeverityBreakdown(y)
		a.MTBI(y)
		a.P75IRT(y)
		a.IncidentDurations(y)
		for _, dn := range []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric} {
			a.DesignMTBI(y, dn)
		}
	}
}

// checkCell compares a composed cell with what the facade produces for
// the same inputs: the pinned values when the seed is pinned, otherwise
// a fresh dcnr.SimulateIntraDC run (cached per seed in facade).
func (b *bench) checkCell(c cellOut, l leg, facade map[uint64]cellPin) {
	key := pinKey(b.workload, c.seed)
	want, ok := pins.Cells[key]
	if !ok {
		if want, ok = facade[c.seed]; !ok {
			p, err := facadeCell(l, c.seed)
			if !b.tally.op(err) {
				return
			}
			facade[c.seed], want = p, p
		}
	}
	b.tally.check(c.digest == want.SevsSHA256, "%s sevs.json sha256 %s, facade %s", key, c.digest, want.SevsSHA256)
	b.tally.check(c.faults == want.Faults && c.incidents == want.Incidents,
		"%s: %d faults / %d incidents, facade %d / %d", key, c.faults, c.incidents, want.Faults, want.Incidents)
	b.tally.check(c.claimsPassed == want.ClaimsPassed && c.claims == want.ClaimsTotal,
		"%s: intra claims %d/%d, facade %d/%d", key, c.claimsPassed, c.claims, want.ClaimsPassed, want.ClaimsTotal)
}

// facadeCell runs one cell through dcnr.SimulateIntraDC.
func facadeCell(l leg, seed uint64) (cellPin, error) {
	res, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{
		Seed: seed, Scale: l.scale, DisableRemediation: l.scenario.DisableRemediation,
	})
	if err != nil {
		return cellPin{}, err
	}
	h := sha256.New()
	if err := res.Store.WriteJSON(h); err != nil {
		return cellPin{}, err
	}
	p := cellPin{SevsSHA256: hex.EncodeToString(h.Sum(nil)), Faults: res.Faults, Incidents: res.Incidents}
	for _, c := range res.Analysis.VerifyIntraClaims() {
		p.ClaimsTotal++
		if c.Pass {
			p.ClaimsPassed++
		}
	}
	return p, nil
}

// traceIntra is the traced run: composed passes over the campaign's
// cells, alternating untraced and traced, then one traced sweep campaign
// for the pool's occupancy.
func traceIntra(b *bench, l leg, seeds []uint64) error {
	g := b.budget()
	facade := map[uint64]cellPin{}
	// Warm the process up on one cell, so the first timed pass is not
	// the only one paying for it.
	if c, err := composeCell(nil, false, l, seeds[0]); b.tally.op(err) {
		b.checkCell(c, l, facade)
	}
	var plain, traced []float64
	var gc runtimeStats
	var cells []cellOut
	passRuns := map[string]bool{}
	for pass := 0; g.next(pass); pass++ {
		// Outputs are checked after each pass, outside its timing.
		var outs []cellOut
		settle()
		before := readRuntime()
		start := time.Now()
		for _, s := range seeds {
			c, err := composeCell(nil, false, l, s)
			if b.tally.op(err) {
				outs = append(outs, c)
			}
		}
		plain = append(plain, time.Since(start).Seconds())
		gc = gc.add(readRuntime().sub(before))

		run := fmt.Sprintf("%s-pass%d", b.workload, pass)
		passRuns[run] = true
		b.spans.startRun(run)
		settle()
		b.spans.begin("bench", "pass")
		for _, s := range seeds {
			c, err := composeCell(b.spans, true, l, s)
			if b.tally.op(err) {
				outs = append(outs, c)
				cells = append(cells, c)
			}
		}
		traced = append(traced, b.spans.end().Seconds())
		for _, c := range outs {
			b.checkCell(c, l, facade)
		}
	}

	b.spans.startRun(b.workload + "-sweep")
	busy, err := tracedCampaign(b, l, seeds)
	if !b.tally.op(err) {
		return fmt.Errorf("traced campaign: %w", err)
	}
	b.set("sweep.pool_busy_ratio", busy)

	var runNS, events, allocs, bytes, submitted, repaired int64
	var faultsN, incs int
	var core, write time.Duration
	for _, c := range cells {
		runNS += int64(c.run)
		events += c.events
		allocs += int64(c.alloc.allocObjects)
		bytes += int64(c.alloc.allocBytes)
		submitted += c.submitted
		repaired += c.repaired
		faultsN += c.faults
		incs += c.incidents
		core += c.core
		write += c.write
	}
	n := float64(len(cells))
	if n == 0 || events == 0 {
		return fmt.Errorf("traced passes produced no cells")
	}
	b.set("faults.run_ms", float64(runNS)/1e6/n)
	b.set("faults.ns_per_event", float64(runNS)/float64(events))
	b.set("faults.allocs_per_event", float64(allocs)/float64(events))
	b.set("faults.bytes_per_event", float64(bytes)/float64(events))
	b.set("des.events", float64(events)/n)
	b.set("faults.faults", float64(faultsN)/n)
	b.set("faults.incidents", float64(incs)/n)
	if submitted > 0 {
		b.set("remediation.repaired_ratio", float64(repaired)/float64(submitted))
	}
	b.set("core.intra_ms", ms(core)/n)
	b.set("sev.write_json_ms", ms(write)/n)
	b.notes["escalated_share"] = float64(incs) / float64(faultsN)
	b.setTraceSummary(plain, traced, gc, passRuns)
	return nil
}

// tracedCampaign runs one campaign with the sweep's own per-run spans on
// (Observe.Trace) and returns the pool's busy ratio: the summed per-run
// span time over workers × campaign wall.
func tracedCampaign(b *bench, l leg, seeds []uint64) (float64, error) {
	cfg := campaignConfig(l, seeds)
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	workers := min(cfg.Workers, len(seeds))
	b.spans.begin("sweep", "dcnr.Sweep")
	parent := b.spans.lastID()
	origin := time.Since(b.spans.t0)
	tr := dcnr.NewTracer()
	cfg.Observe.Trace = tr
	c, err := campaign(cfg)
	b.spans.end()
	if err != nil {
		return 0, err
	}
	b.checkCampaign(c, nil)
	var busy float64
	for _, ev := range tr.Events() {
		if ev.Phase != "X" || ev.Cat != "sweep" {
			continue
		}
		busy += ev.Dur
		start := origin + time.Duration(ev.TS*float64(time.Microsecond))
		b.spans.add(parent, "sweep", ev.Name, start, start+time.Duration(ev.Dur*float64(time.Microsecond)))
	}
	return busy / (float64(workers) * us(c.wall)), nil
}

// setTraceSummary reports what every traced run reports: the tracing
// overhead (median traced pass over median untraced pass), the GC's CPU
// share during untraced passes, span coverage, and each layer's self time
// per traced pass.
func (b *bench) setTraceSummary(plain, traced []float64, gc runtimeStats, passRuns map[string]bool) {
	b.set("obs.trace_overhead_ratio", median(traced)/median(plain)-1)
	b.set("runtime.gc_cpu_ratio", gc.gcRatio())
	var passSpans []span
	for _, s := range b.spans.spans {
		if passRuns[s.Run] {
			passSpans = append(passSpans, s)
		}
	}
	cov := coverage(passSpans, passRuns)
	b.set("obs.span_coverage_ratio", cov)
	b.tally.check(cov >= 0.9, "layer spans cover %.3f of the traced wall, want >= 0.9", cov)
	self := selfTimes(passSpans)
	table := map[string]float64{}
	for layer, d := range self {
		v := ms(d) / float64(len(traced))
		table[layer] = v
		if _, ok := metricUnits[layer+".self_ms"]; ok {
			b.set(layer+".self_ms", v)
		}
	}
	b.notes["self_ms_per_pass"] = table
	b.notes["traced_passes"] = len(traced)
	b.timings["obs.trace_overhead_ratio"] = describe(len(traced), 50)
}
