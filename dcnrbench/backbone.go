package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"dcnr"
	"dcnr/internal/backbone"
	"dcnr/internal/core"
	"dcnr/internal/tickets"
)

// backboneOp is one backbone seed through the facade, as a user runs it:
// dcnr.SimulateBackbone at the default config, the Table 4 and Fig 15–18
// analyses, the claims verifier, and the tickets.txt archive, digested
// while it is written.
func backboneOp(seed uint64) (backbonePin, error) {
	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = seed
	res, err := dcnr.SimulateBackbone(cfg)
	if err != nil {
		return backbonePin{}, err
	}
	readInterAnalysis(res.Analysis)
	p := backbonePin{Notices: len(res.Notices)}
	for _, c := range res.Analysis.VerifyInterClaims() {
		p.ClaimsTotal++
		if c.Pass {
			p.ClaimsPassed++
		}
	}
	h := sha256.New()
	if err := tickets.WriteAll(h, res.Notices); err != nil {
		return backbonePin{}, err
	}
	p.TicketsSHA256 = hex.EncodeToString(h.Sum(nil))
	return p, nil
}

// readInterAnalysis calls the accessors behind Table 4 and Figures
// 15–18, with the exponential fits the figures report.
func readInterAnalysis(a *core.InterAnalysis) {
	a.ByContinent()
	for _, m := range []map[string]float64{a.EdgeMTBF(), a.EdgeMTTR(), a.VendorMTBF(), a.VendorMTTR()} {
		_, _ = core.FitCurve(m) // a fit error is a property of the data, graded by the claims
	}
}

// checkBackbone compares one seed's outputs with the pinned ones, or,
// for an unpinned seed, with the first result for that seed in this run
// (computed through the facade when first has none).
func (b *bench) checkBackbone(seed uint64, got backbonePin, first map[uint64]backbonePin) {
	key := pinKey("backbone", seed)
	want, ok := pins.Backbone[key]
	if !ok {
		if want, ok = first[seed]; !ok {
			var err error
			if want, err = backboneOp(seed); !b.tally.op(err) {
				return
			}
			first[seed] = want
		}
	}
	b.tally.check(got.TicketsSHA256 == want.TicketsSHA256, "%s tickets.txt sha256 %s, want %s", key, got.TicketsSHA256, want.TicketsSHA256)
	b.tally.check(got.Notices == want.Notices, "%s: %d notices, want %d", key, got.Notices, want.Notices)
	b.tally.check(got.ClaimsPassed == want.ClaimsPassed && got.ClaimsTotal == want.ClaimsTotal,
		"%s: inter claims %d/%d, want %d/%d", key, got.ClaimsPassed, got.ClaimsTotal, want.ClaimsPassed, want.ClaimsTotal)
}

func runBackbone(b *bench) error {
	seeds := simSeeds(b.seed, backboneCycle)
	b.notes["sim_seeds"] = seeds
	if b.trace {
		return traceBackbone(b, seeds)
	}
	setups, err := timeEach(setupReps, func() error {
		cfg := dcnr.DefaultBackboneConfig()
		cfg.Seed = seeds[0]
		if err := cfg.Validate(); err != nil {
			return err
		}
		_, err := backbone.Build(cfg)
		return err
	})
	if err != nil {
		return fmt.Errorf("set-up: %w", err)
	}
	b.set("setup_s", median(setups))

	first := map[uint64]backbonePin{}
	warm, err := backboneOp(seeds[0]) // warm-up, checked but not timed
	if !b.tally.op(err) {
		return fmt.Errorf("warm-up: %w", err)
	}
	b.checkBackbone(seeds[0], warm, first)
	first[seeds[0]] = warm

	// Whole cycles only, so every seed weighs the same in the figures.
	var perK, rate []float64
	var notices int
	g := b.budget()
	for i := 0; g.next(i); i++ {
		for _, s := range seeds {
			settle()
			start := time.Now()
			p, err := backboneOp(s)
			d := time.Since(start)
			if !b.tally.op(err) {
				continue
			}
			if _, ok := first[s]; !ok {
				first[s] = p // the op runs the facade; repeats must match it
			}
			b.checkBackbone(s, p, first)
			perK = append(perK, ms(d)*1000/float64(p.Notices))
			rate = append(rate, float64(p.Notices)/d.Seconds())
			notices += p.Notices
		}
	}
	b.set("op_ms", median(perK))
	b.set("work_per_s", median(rate))
	b.timings["op_ms"] = describe(len(perK), 50)
	b.notes["op_ms_samples"] = perK
	b.notes["notices_per_seed"] = float64(notices) / float64(len(perK))
	return nil
}

// bbOut is what one composed backbone seed produced and cost.
type bbOut struct {
	pin                                   backbonePin
	build, simulate, generate             time.Duration
	format, parse, ingest, downtimes      time.Duration
	inter, writeAll                       time.Duration
	formatAllocs, parseAllocs, parseBytes uint64
}

// composeBackbone runs one backbone seed the way sim.Backbone does, but
// calls each layer itself so tr can time it: backbone.Build,
// Topology.Simulate, tickets.Generate, Notice.Format, tickets.Parse,
// Collector.Ingest, Downtimes, core.NewInterAnalysis and its accessors,
// tickets.WriteAll. The round trip runs as three loops (format all,
// parse all, ingest all) so each call kind gets one span; the collector
// sees the notices in the same order either way.
func composeBackbone(tr *tracer, seed uint64) (bbOut, error) {
	var out bbOut
	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = seed
	if err := cfg.Validate(); err != nil {
		return out, err
	}
	tr.begin("backbone", "backbone.Build")
	topo, err := backbone.Build(cfg)
	out.build = tr.end()
	if err != nil {
		return out, err
	}
	tr.begin("backbone", "Topology.Simulate")
	downs, err := topo.Simulate(cfg)
	out.simulate = tr.end()
	if err != nil {
		return out, err
	}
	tr.begin("tickets", "tickets.Generate")
	notices := tickets.Generate(topo, downs)
	out.generate = tr.end()

	m0 := readRuntime()
	tr.begin("tickets", "Notice.Format")
	texts := make([]string, len(notices))
	for i, n := range notices {
		texts[i] = n.Format()
	}
	out.format = tr.end()
	m1 := readRuntime()
	tr.begin("tickets", "tickets.Parse")
	parsed := make([]tickets.Notice, len(texts))
	for i, t := range texts {
		if parsed[i], err = tickets.Parse(t); err != nil {
			break
		}
	}
	out.parse = tr.end()
	m2 := readRuntime()
	if err != nil {
		return out, fmt.Errorf("ticket round trip: %w", err)
	}
	out.formatAllocs = m1.sub(m0).allocObjects
	out.parseAllocs = m2.sub(m1).allocObjects
	out.parseBytes = m2.sub(m1).allocBytes

	coll := tickets.NewCollector()
	coll.WindowHours = cfg.WindowHours()
	tr.begin("tickets", "Collector.Ingest")
	for _, n := range parsed {
		if err = coll.Ingest(n); err != nil {
			break
		}
	}
	out.ingest = tr.end()
	if err != nil {
		return out, fmt.Errorf("collecting tickets: %w", err)
	}
	tr.begin("tickets", "Collector.Downtimes")
	dts := coll.Downtimes()
	out.downtimes = tr.end()

	tr.begin("core", "core.InterAnalysis")
	a, err := core.NewInterAnalysis(topo, dts, coll.WindowHours)
	if err == nil {
		readInterAnalysis(a)
	}
	out.inter = tr.end()
	if err != nil {
		return out, err
	}
	// finishBackbone grades the claims (core) and writes tickets.txt
	// (tickets); time them apart.
	tr.begin("core", "InterAnalysis.VerifyInterClaims")
	claims := a.VerifyInterClaims()
	out.inter += tr.end()
	tr.begin("tickets", "tickets.WriteAll")
	h := sha256.New()
	err = tickets.WriteAll(h, notices)
	out.writeAll = tr.end()
	if err != nil {
		return out, err
	}
	out.pin = backbonePin{TicketsSHA256: hex.EncodeToString(h.Sum(nil)), Notices: len(notices)}
	for _, c := range claims {
		out.pin.ClaimsTotal++
		if c.Pass {
			out.pin.ClaimsPassed++
		}
	}
	return out, nil
}

// traceBackbone is the traced run: composed passes over the seed cycle,
// alternating untraced and traced.
func traceBackbone(b *bench, seeds []uint64) error {
	g := b.budget()
	first := map[uint64]backbonePin{}
	if o, err := composeBackbone(nil, seeds[0]); b.tally.op(err) { // warm-up
		b.checkBackbone(seeds[0], o.pin, first)
	}
	var plain, traced []float64
	var gc runtimeStats
	var outs []bbOut
	passRuns := map[string]bool{}
	for pass := 0; g.next(pass); pass++ {
		// Outputs are checked after each pass, outside its timing.
		got := map[uint64][]backbonePin{}
		settle()
		before := readRuntime()
		start := time.Now()
		for _, s := range seeds {
			o, err := composeBackbone(nil, s)
			if b.tally.op(err) {
				got[s] = append(got[s], o.pin)
			}
		}
		plain = append(plain, time.Since(start).Seconds())
		gc = gc.add(readRuntime().sub(before))

		run := fmt.Sprintf("backbone-pass%d", pass)
		passRuns[run] = true
		b.spans.startRun(run)
		settle()
		b.spans.begin("bench", "pass")
		for _, s := range seeds {
			o, err := composeBackbone(b.spans, s)
			if b.tally.op(err) {
				got[s] = append(got[s], o.pin)
				outs = append(outs, o)
			}
		}
		traced = append(traced, b.spans.end().Seconds())
		for s, ps := range got {
			for _, p := range ps {
				b.checkBackbone(s, p, first)
			}
		}
	}
	if len(outs) == 0 {
		return fmt.Errorf("traced passes produced no seeds")
	}
	var sum bbOut
	var notices int
	for _, o := range outs {
		sum.build += o.build
		sum.simulate += o.simulate
		sum.generate += o.generate
		sum.format += o.format
		sum.parse += o.parse
		sum.ingest += o.ingest
		sum.downtimes += o.downtimes
		sum.inter += o.inter
		sum.writeAll += o.writeAll
		sum.formatAllocs += o.formatAllocs
		sum.parseAllocs += o.parseAllocs
		sum.parseBytes += o.parseBytes
		notices += o.pin.Notices
	}
	n, nn := float64(len(outs)), float64(notices)
	b.set("backbone.build_ms", ms(sum.build)/n)
	b.set("backbone.simulate_ms", ms(sum.simulate)/n)
	b.set("tickets.generate_ms", ms(sum.generate)/n)
	b.set("tickets.format_ms", ms(sum.format)/n)
	b.set("tickets.parse_ms", ms(sum.parse)/n)
	b.set("tickets.ingest_ms", ms(sum.ingest)/n)
	b.set("tickets.downtimes_ms", ms(sum.downtimes)/n)
	b.set("tickets.write_all_ms", ms(sum.writeAll)/n)
	b.set("core.inter_ms", ms(sum.inter)/n)
	b.set("tickets.format_allocs_per_notice", float64(sum.formatAllocs)/nn)
	b.set("tickets.parse_allocs_per_notice", float64(sum.parseAllocs)/nn)
	b.set("tickets.parse_bytes_per_notice", float64(sum.parseBytes)/nn)
	b.set("tickets.notices", nn/n)
	total := sum.build + sum.simulate + sum.generate + sum.format + sum.parse +
		sum.ingest + sum.downtimes + sum.inter + sum.writeAll
	b.notes["round_trip_share"] = float64(sum.format+sum.parse) / float64(total)
	b.setTraceSummary(plain, traced, gc, passRuns)
	return nil
}
