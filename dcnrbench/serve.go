package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dcnr"
	"dcnr/internal/obs"
	"dcnr/internal/serve"
	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

const (
	// connections is the closed-loop client count. Dashboards wait for
	// each reply, so the generator does too; an open loop would also
	// measure the Go timer, whose sleeps wake late by several times the
	// daemon's median service time on a small machine.
	connections = 2
	// ingestEvery makes every ingestEvery-th request a POST /ingest.
	ingestEvery = 200
	// heldEvery holds back every heldEvery-th simulated report from the
	// initial load; the held-back reports are ingested in batches.
	heldEvery = 6
	// batchSize is the number of reports per ingest.
	batchSize = 16
	// zipfS is the popularity skew of the read mix.
	zipfS = 1.0
)

// serveInput is the serve workload's data: the SEVs of serveRuns
// simulated scale-5 runs, renumbered into one ID space.
type serveInput struct {
	Seeds   []uint64     `json:"seeds"`
	Digests []string     `json:"sevs_sha256"`
	Reports []sev.Report `json:"reports"`
}

// serveInputMain simulates the serve workload's inputs and writes them to
// standard output. The serve workload runs it as a child process, so the
// simulations' memory never counts toward the daemon's peak RSS.
func serveInputMain(args []string) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: dcnrbench serve-input SEED")
	}
	w, err := strconv.ParseUint(args[0], 10, 64)
	if err != nil {
		return fmt.Errorf("serve-input: %w", err)
	}
	in := serveInput{Seeds: simSeeds(w, serveRuns), Digests: make([]string, serveRuns)}
	parts := make([][]sev.Report, serveRuns)
	err = dcnr.RunLimit(0, serveRuns, func(i int) error {
		res, err := dcnr.SimulateIntraDC(dcnr.IntraConfig{Seed: in.Seeds[i], Scale: legs["intradc"].scale})
		if err != nil {
			return err
		}
		h := sha256.New()
		if err := res.Store.WriteJSON(h); err != nil {
			return err
		}
		in.Digests[i] = hex.EncodeToString(h.Sum(nil))
		parts[i] = res.Store.All()
		return nil
	})
	if err != nil {
		return err
	}
	for _, p := range parts {
		for _, r := range p {
			r.ID = len(in.Reports) + 1
			in.Reports = append(in.Reports, r)
		}
	}
	return json.NewEncoder(os.Stdout).Encode(in)
}

// serveData is everything a serve run needs, built before any timing.
type serveData struct {
	loaded  []byte         // the initial dataset, in sevs.json form
	batches [][]sev.Report // held-back reports, one slice per ingest
	bodies  [][]byte       // the same batches as POST /ingest bodies
	keys    []qspec
	urls    []string
	mix     *mix
	want    []any // each key's answer from an unsharded store of every report
}

func prepareServe(b *bench) (*serveData, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve-input", strconv.FormatUint(b.seed, 10))
	cmd.Stderr = os.Stderr
	raw, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	var in serveInput
	if err := json.Unmarshal(raw, &in); err != nil {
		return nil, fmt.Errorf("reading inputs: %w", err)
	}
	for i, s := range in.Seeds {
		if p, ok := pins.Cells[pinKey("intradc", s)]; ok {
			b.tally.check(in.Digests[i] == p.SevsSHA256, "serve input seed %d sevs.json sha256 %s, pinned %s", s, in.Digests[i], p.SevsSHA256)
		}
	}
	d := &serveData{keys: keySpace()}
	var loaded, held []sev.Report
	for i, r := range in.Reports {
		if i%heldEvery == heldEvery-1 {
			held = append(held, r)
		} else {
			loaded = append(loaded, r)
		}
	}
	if d.loaded, err = json.Marshal(loaded); err != nil {
		return nil, err
	}
	for len(held) > 0 {
		n := min(batchSize, len(held))
		body, err := json.Marshal(held[:n])
		if err != nil {
			return nil, err
		}
		d.batches = append(d.batches, held[:n])
		d.bodies = append(d.bodies, body)
		held = held[n:]
	}
	d.mix = newMix(d.keys, b.seed, zipfS)
	ref := sev.NewStore()
	if _, err := ref.AddAll(in.Reports); err != nil {
		return nil, err
	}
	for _, q := range d.keys {
		d.urls = append(d.urls, q.url())
		a, err := canonical(answer(narrow(ref.Query(), q), q))
		if err != nil {
			return nil, fmt.Errorf("reference answer for %s: %w", q.url(), err)
		}
		d.want = append(d.want, a)
	}
	b.notes["sim_seeds"] = in.Seeds
	b.notes["reports_loaded"] = len(loaded)
	b.notes["reports_ingested"] = len(in.Reports) - len(loaded)
	b.notes["ingest_batches"] = len(d.batches)
	b.notes["distinct_queries"] = len(d.keys)
	b.notes["keyspace_over_cache"] = float64(len(d.keys)) / serve.DefaultCacheEntries
	b.notes["generator"] = fmt.Sprintf("closed loop, %d connections, zipf s=%g, ingest every %dth request", connections, zipfS, ingestEvery)
	return d, nil
}

// epochRequests is one epoch's request count: exactly enough that every
// held-back batch is ingested once, so every epoch does the same work.
func (d *serveData) epochRequests() uint64 { return uint64(ingestEvery * len(d.batches)) }

// startDaemon builds a daemon, loads the dataset and starts listening.
func startDaemon(d *serveData, reg *obs.Registry) (*dcnr.SEVDaemon, string, error) {
	dm, err := dcnr.NewSEVDaemon(&dcnr.ServeConfig{
		Addr: "127.0.0.1:0", Shards: runtime.NumCPU(), Obs: dcnr.Observe{Metrics: reg},
	})
	if err != nil {
		return nil, "", err
	}
	if err := dm.LoadJSON(bytes.NewReader(d.loaded)); err != nil {
		dm.Shutdown()
		return nil, "", err
	}
	addr, err := dm.Start()
	if err != nil {
		dm.Shutdown()
		return nil, "", err
	}
	return dm, addr, nil
}

// epochResult is one epoch's client-side measurements.
type epochResult struct {
	wall             time.Duration
	hitUS, missUS    []float64
	ingestMS         []float64
	requests, failed int
	firstErr         string
}

func (e *epochResult) readsUS() []float64 {
	return append(append([]float64(nil), e.hitUS...), e.missUS...)
}

// loadEpoch drives the daemon closed-loop over connections client
// connections until the epoch's requests are done. Request k (1-based)
// is an ingest of batch k/ingestEvery-1 when k is a multiple of
// ingestEvery, else a read of the mix's draw k.
func loadEpoch(addr string, d *serveData) epochResult {
	n := d.epochRequests()
	var next atomic.Uint64
	parts := make([]epochResult, connections)
	var wg sync.WaitGroup
	start := time.Now()
	for c := range parts {
		wg.Add(1)
		go func(r *epochResult) {
			defer wg.Done()
			tr := &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			client := &http.Client{Transport: tr, Timeout: 30 * time.Second}
			for k := next.Add(1); k <= n; k = next.Add(1) {
				r.requests++
				var err error
				if k%ingestEvery == 0 {
					err = ingest(client, addr, d, int(k/ingestEvery)-1, r)
				} else {
					err = read(client, addr, d.urls[d.mix.at(k)], r)
				}
				if err != nil {
					r.failed++
					if r.firstErr == "" {
						r.firstErr = err.Error()
					}
				}
			}
		}(&parts[c])
	}
	wg.Wait()
	out := epochResult{wall: time.Since(start)}
	for _, p := range parts {
		out.hitUS = append(out.hitUS, p.hitUS...)
		out.missUS = append(out.missUS, p.missUS...)
		out.ingestMS = append(out.ingestMS, p.ingestMS...)
		out.requests += p.requests
		out.failed += p.failed
		if out.firstErr == "" {
			out.firstErr = p.firstErr
		}
	}
	return out
}

func read(client *http.Client, addr, url string, r *epochResult) error {
	start := time.Now()
	resp, err := client.Get("http://" + addr + url)
	if err != nil {
		return err
	}
	_, err = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	lat := us(time.Since(start))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	if resp.Header.Get("X-Cache") == "hit" {
		r.hitUS = append(r.hitUS, lat)
	} else {
		r.missUS = append(r.missUS, lat)
	}
	return nil
}

func ingest(client *http.Client, addr string, d *serveData, i int, r *epochResult) error {
	start := time.Now()
	resp, err := client.Post("http://"+addr+"/ingest", "application/json", bytes.NewReader(d.bodies[i]))
	if err != nil {
		return err
	}
	var body struct {
		Ingested int `json:"ingested"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	_, _ = io.Copy(io.Discard, resp.Body) // drain so the connection is reused
	resp.Body.Close()
	lat := ms(time.Since(start))
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("POST /ingest: %s", resp.Status)
	}
	if err != nil {
		return fmt.Errorf("POST /ingest: %w", err)
	}
	if body.Ingested != len(d.batches[i]) {
		return fmt.Errorf("POST /ingest: ingested %d of %d", body.Ingested, len(d.batches[i]))
	}
	r.ingestMS = append(r.ingestMS, lat)
	return nil
}

// checkHTTPAnswers asks the daemon every distinct query and compares each
// answer with the unsharded reference store's.
func (b *bench) checkHTTPAnswers(addr string, d *serveData) {
	client := &http.Client{Timeout: 30 * time.Second}
	defer client.CloseIdleConnections()
	for i, u := range d.urls {
		resp, err := client.Get("http://" + addr + u)
		if !b.tally.op(err) {
			continue
		}
		var got any
		err = json.NewDecoder(resp.Body).Decode(&got)
		resp.Body.Close()
		if !b.tally.check(err == nil && resp.StatusCode == http.StatusOK, "GET %s: %s %v", u, resp.Status, err) {
			continue
		}
		b.tally.check(sameJSON(got, d.want[i]), "GET %s differs from the unsharded store", u)
	}
}

// countEpoch adds an epoch's requests to the tally; a failed request
// counts like a failed check.
func (b *bench) countEpoch(e epochResult) {
	b.tally.attempted += e.requests
	if e.failed > 0 {
		b.tally.fail(fmt.Sprintf("%d requests failed, first: %s", e.failed, e.firstErr))
		b.tally.failed += e.failed - 1
	}
}

func runServe(b *bench) error {
	d, err := prepareServe(b)
	if err != nil {
		return err
	}
	if b.trace {
		return traceServe(b, d)
	}
	var setups, reads, ingests, epochP50, epochQPS []float64
	var hits int
	end := b.deadline()
	// Epoch 0 warms the process up and is not reported; each epoch starts
	// a fresh daemon so every epoch ingests the same batches into the same
	// dataset. The reported figures are medians over epochs, so a burst of
	// contention on a shared machine moves one epoch, not the result.
	for epoch := 0; ; epoch++ {
		settle()
		start := time.Now()
		dm, addr, err := startDaemon(d, nil)
		if !b.tally.op(err) {
			return fmt.Errorf("starting daemon: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		e := loadEpoch(addr, d)
		b.countEpoch(e)
		if epoch > 0 {
			r := sorted(e.readsUS())
			epochP50 = append(epochP50, percentile(r, 50)/1000)
			epochQPS = append(epochQPS, float64(len(r))/e.wall.Seconds())
			reads = append(reads, r...)
			ingests = append(ingests, e.ingestMS...)
			hits += len(e.hitUS)
		}
		// Stop when another epoch would end past the deadline, and check
		// the last epoch's answers before its daemon goes.
		last := epoch > 0 && !time.Now().Add(time.Since(start)).Before(end)
		if last {
			b.checkHTTPAnswers(addr, d)
		}
		dm.Shutdown()
		if last {
			break
		}
	}
	sort.Float64s(reads)
	sort.Float64s(ingests)
	b.set("setup_s", median(setups))
	b.set("op_ms", median(epochP50))
	b.set("work_per_s", median(epochQPS))
	b.timings["read_p50_ms"] = describe(len(reads)/len(epochP50), 50)
	b.timings["read_p99_ms"] = describe(len(reads), 99)
	b.timings["ingest_p50_ms"] = describe(len(ingests), 50)
	b.timings["ingest_p90_ms"] = describe(len(ingests), 90)
	b.notes["epochs"] = len(epochP50)
	b.notes["epoch_read_p50_ms"] = epochP50
	b.notes["epoch_reads_per_s"] = epochQPS
	b.notes["read_p99_ms"] = percentile(reads, 99) / 1000
	b.notes["ingest_p50_ms"] = percentile(ingests, 50)
	b.notes["ingest_p90_ms"] = percentile(ingests, 90)
	b.notes["hit_ratio"] = float64(hits) / float64(len(reads))
	b.notes["ingest_time_share"] = sum(ingests) * 1000 / (sum(ingests)*1000 + sum(reads))
	return nil
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// servePass is what one composed serve pass cost.
type servePass struct {
	load              time.Duration
	addAllUS, queryUS []float64
	candidates        float64 // summed over shards
	indexed, scanned  int64
	answers           []any
}

// composeServe calls the serve workload's layers directly, with no HTTP:
// serve.NewDaemon, Daemon.LoadJSON, Sharded.AddAll per held-back batch,
// and every distinct query through ShardedQuery.
func composeServe(tr *tracer, instrument bool, d *serveData) (servePass, error) {
	var out servePass
	var reg *obs.Registry
	if instrument {
		reg = obs.NewRegistry()
	}
	tr.begin("serve", "serve.NewDaemon")
	dm, err := dcnr.NewSEVDaemon(&dcnr.ServeConfig{
		Addr: "127.0.0.1:0", Shards: runtime.NumCPU(), Obs: dcnr.Observe{Metrics: reg},
	})
	tr.end()
	if err != nil {
		return out, err
	}
	defer dm.Shutdown()
	tr.begin("sev", "Daemon.LoadJSON")
	err = dm.LoadJSON(bytes.NewReader(d.loaded))
	out.load = tr.end()
	if err != nil {
		return out, err
	}
	store := dm.Store()
	for _, batch := range d.batches {
		start := time.Now()
		tr.begin("sev", "Sharded.AddAll")
		_, err := store.AddAll(batch)
		tr.end()
		out.addAllUS = append(out.addAllUS, us(time.Since(start)))
		if err != nil {
			return out, err
		}
	}
	out.answers = make([]any, len(d.keys))
	for i, q := range d.keys {
		start := time.Now()
		tr.begin("sev", "ShardedQuery")
		out.answers[i], err = answer(narrow(store.Query(), q), q)
		tr.end()
		out.queryUS = append(out.queryUS, us(time.Since(start)))
		if err != nil {
			return out, err
		}
	}
	tr.begin("serve", "Daemon.Shutdown")
	dm.Shutdown()
	tr.end()
	if reg != nil {
		snap := reg.Snapshot()
		out.candidates = snap.Histograms["sev_query_candidates"].Sum
		out.indexed = snap.Counters["sev_queries_indexed_total"]
		out.scanned = snap.Counters["sev_queries_scan_total"]
	}
	return out, nil
}

func (b *bench) checkAnswers(p servePass, d *serveData) {
	for i, a := range p.answers {
		got, err := canonical(a, nil)
		b.tally.check(err == nil && sameJSON(got, d.want[i]), "ShardedQuery %s differs from the unsharded store", d.urls[i])
	}
}

// traceServe is the traced run: HTTP epochs with the daemon's metrics
// registry attached (cache hit and latency split), then composed passes
// alternating untraced and traced for the rest of the budget.
func traceServe(b *bench, d *serveData) error {
	g := b.budget()
	var hits, misses, ingests []float64
	var cacheHits, cacheMisses int64
	for epoch := 0; epoch < 3; epoch++ {
		reg := obs.NewRegistry()
		settle()
		dm, addr, err := startDaemon(d, reg)
		if !b.tally.op(err) {
			return fmt.Errorf("starting daemon: %w", err)
		}
		e := loadEpoch(addr, d)
		b.countEpoch(e)
		dm.Shutdown()
		if epoch == 0 {
			continue // warm-up
		}
		hits = append(hits, e.hitUS...)
		misses = append(misses, e.missUS...)
		ingests = append(ingests, e.ingestMS...)
		c := reg.Snapshot().Counters
		cacheHits += c["serve_cache_hits_total"]
		cacheMisses += c["serve_cache_misses_total"]
	}
	reads := append(append([]float64(nil), hits...), misses...)
	for _, xs := range [][]float64{hits, misses, ingests, reads} {
		sort.Float64s(xs)
	}
	b.set("serve.hit_ratio", float64(cacheHits)/float64(cacheHits+cacheMisses))
	b.set("serve.hit_p50_us", percentile(hits, 50))
	b.set("serve.miss_p50_us", percentile(misses, 50))
	b.set("serve.miss_p99_us", percentile(misses, 99))
	b.set("serve.read_p99_ms", percentile(reads, 99)/1000)
	b.set("serve.ingest_p50_ms", percentile(ingests, 50))
	b.set("serve.ingest_p90_ms", percentile(ingests, 90))
	b.timings["serve.miss_p99_us"] = describe(len(misses), 99)
	b.timings["serve.read_p99_ms"] = describe(len(reads), 99)
	b.timings["serve.ingest_p90_ms"] = describe(len(ingests), 90)

	if p, err := composeServe(nil, false, d); b.tally.op(err) { // warm-up
		b.checkAnswers(p, d)
	}
	var plain, traced []float64
	var gc runtimeStats
	var loads, addAll, query []float64
	var candidates float64
	var indexed, scanned int64
	var queries int
	passRuns := map[string]bool{}
	for pass := 0; g.next(pass); pass++ {
		settle()
		before := readRuntime()
		start := time.Now()
		p, err := composeServe(nil, false, d)
		plain = append(plain, time.Since(start).Seconds())
		gc = gc.add(readRuntime().sub(before))
		if b.tally.op(err) {
			b.checkAnswers(p, d)
		}

		run := fmt.Sprintf("serve-pass%d", pass)
		passRuns[run] = true
		b.spans.startRun(run)
		settle()
		b.spans.begin("bench", "pass")
		p, err = composeServe(b.spans, true, d)
		traced = append(traced, b.spans.end().Seconds())
		if !b.tally.op(err) {
			continue
		}
		b.checkAnswers(p, d)
		loads = append(loads, ms(p.load))
		addAll = append(addAll, p.addAllUS...)
		query = append(query, p.queryUS...)
		candidates += p.candidates
		indexed += p.indexed
		scanned += p.scanned
		queries += len(p.queryUS)
	}
	if queries == 0 {
		return fmt.Errorf("traced passes answered no queries")
	}
	sort.Float64s(query)
	b.set("sev.load_ms", median(loads))
	b.set("sev.add_all_us", median(addAll))
	b.set("sev.query_p50_us", percentile(query, 50))
	b.set("sev.query_p99_us", percentile(query, 99))
	b.set("sev.candidates_per_query", candidates/float64(queries))
	if indexed+scanned > 0 {
		b.set("sev.indexed_ratio", float64(indexed)/float64(indexed+scanned))
	}
	b.timings["sev.query_p99_us"] = describe(len(query), 99)
	b.setTraceSummary(plain, traced, gc, passRuns)
	return nil
}

// aggregates is the aggregation surface sev.Query and sev.ShardedQuery
// share.
type aggregates interface {
	Count() int
	CountByDeviceType() map[topology.DeviceType]int
	CountBySeverity() map[sev.Severity]int
	CountByYear() map[int]int
	CountByRootCause() map[sev.RootCause]int
	CountBySeverityDeviceType() map[sev.Severity]map[topology.DeviceType]int
	CountByYearSeverity() map[int]map[sev.Severity]int
	CountByYearDeviceType() map[int]map[topology.DeviceType]int
	CountByYearDesign() map[int]map[topology.Design]int
	Resolutions() []float64
	ResolutionsByDeviceType() map[topology.DeviceType][]float64
	ResolutionsByYear() map[int][]float64
}

type narrower[Q any] interface {
	Year(int) Q
	DeviceType(topology.DeviceType) Q
	Severity(sev.Severity) Q
}

// narrow applies the query's filters.
func narrow[Q narrower[Q]](q Q, s qspec) Q {
	if s.year != 0 {
		q = q.Year(s.year)
	}
	if s.device != nil {
		q = q.DeviceType(*s.device)
	}
	if s.severity != 0 {
		q = q.Severity(s.severity)
	}
	return q
}

// answer computes the query's response body in the shape dcnrd serves:
// {"count": n} or {"groups": {...}} for counts, percentile bands per
// group for resolutions.
func answer(a aggregates, q qspec) (any, error) {
	if q.endpoint == "resolutions" {
		samples := map[string][]float64{}
		switch q.by {
		case "":
			samples["all"] = a.Resolutions()
		case "device":
			for k, v := range a.ResolutionsByDeviceType() {
				samples[k.String()] = v
			}
		case "year":
			for k, v := range a.ResolutionsByYear() {
				samples[strconv.Itoa(k)] = v
			}
		default:
			return nil, fmt.Errorf("bad by=%q", q.by)
		}
		groups := map[string]any{}
		for k, xs := range samples {
			if len(xs) == 0 {
				continue
			}
			ps, err := stats.Percentiles(xs, 50, 75, 90, 99)
			if err != nil {
				return nil, err
			}
			groups[k] = map[string]any{"count": len(xs), "mean": stats.Mean(xs),
				"p50": ps[0], "p75": ps[1], "p90": ps[2], "p99": ps[3]}
		}
		return map[string]any{"groups": groups}, nil
	}
	var g map[string]any
	switch q.by {
	case "":
		return map[string]any{"count": a.Count()}, nil
	case "device":
		g = flat(a.CountByDeviceType(), topology.DeviceType.String)
	case "severity":
		g = flat(a.CountBySeverity(), sev.Severity.String)
	case "year":
		g = flat(a.CountByYear(), strconv.Itoa)
	case "cause":
		g = flat(a.CountByRootCause(), sev.RootCause.String)
	case "severity-device":
		g = nested(a.CountBySeverityDeviceType(), sev.Severity.String, topology.DeviceType.String)
	case "year-severity":
		g = nested(a.CountByYearSeverity(), strconv.Itoa, sev.Severity.String)
	case "year-device":
		g = nested(a.CountByYearDeviceType(), strconv.Itoa, topology.DeviceType.String)
	case "year-design":
		g = nested(a.CountByYearDesign(), strconv.Itoa, topology.Design.String)
	default:
		return nil, fmt.Errorf("bad by=%q", q.by)
	}
	if len(g) == 0 {
		return map[string]any{}, nil // dcnrd omits empty groups
	}
	return map[string]any{"groups": g}, nil
}

func flat[K comparable](m map[K]int, key func(K) string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[key(k)] = v
	}
	return out
}

func nested[K1, K2 comparable](m map[K1]map[K2]int, k1 func(K1) string, k2 func(K2) string) map[string]any {
	out := make(map[string]any, len(m))
	for a, row := range m {
		out[k1(a)] = flat(row, k2)
	}
	return out
}

// canonical round-trips v through JSON, so it compares equal to a decoded
// response body.
func canonical(v any, err error) (any, error) {
	if err != nil {
		return nil, err
	}
	data, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	var out any
	err = json.Unmarshal(data, &out)
	return out, err
}

// sameJSON compares decoded JSON values. Numbers may differ in the last
// bits: a sharded mean sums the samples in another order.
func sameJSON(a, b any) bool {
	switch x := a.(type) {
	case map[string]any:
		y, ok := b.(map[string]any)
		if !ok || len(x) != len(y) {
			return false
		}
		for k, v := range x {
			w, ok := y[k]
			if !ok || !sameJSON(v, w) {
				return false
			}
		}
		return true
	case float64:
		y, ok := b.(float64)
		return ok && math.Abs(x-y) <= 1e-9*math.Max(1, math.Max(math.Abs(x), math.Abs(y)))
	default:
		return a == b
	}
}
