// Command dcnrload is the load harness for dcnrd: it replays the paper-
// figure-weighted query mix against a daemon at rising concurrency and
// records throughput, latency percentiles, and cache hit rate per step —
// the numbers behind BENCH_ledger.json's dcnrload rows (make bench).
//
// Usage:
//
//	dcnrload [-addr HOST:PORT] [-steps 1,2,4,8] [-requests N]
//	         [-shards N] [-cache N] [-reports N] [-seed N] [-out FILE]
//
// With -addr, dcnrload drives an already-running daemon. Without it, the
// harness self-hosts: it builds an in-process daemon on a loopback
// listener (-shards/-cache), seeds it with a deterministic synthetic
// dataset (-reports/-seed), and drives that over real HTTP — one command,
// no orchestration.
//
// The query mix weights the endpoints by how often the paper's analyses
// consult them: device-type and yearly count breakdowns (Figures 2-5,
// Tables 3-4) dominate, root-cause counts (Table 2) and resolution-time
// percentile bands (the MTTR figures) follow, plus a thin tail of
// filtered deep-dives. Each concurrency step replays the same mix with a
// fresh deterministic PRNG stream per worker, so repeated steps re-ask
// the same ~dozen normalized queries and the daemon's result cache is
// exercised the way a dashboard fleet would.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dcnr/internal/serve"
	"dcnr/internal/sev"
	"dcnr/internal/stats"
)

func main() {
	var (
		addr     = flag.String("addr", "", "target dcnrd address (default: self-host an in-process daemon)")
		steps    = flag.String("steps", "1,2,4,8", "comma-separated concurrency ladder")
		requests = flag.Int("requests", 400, "requests per concurrency step")
		shards   = flag.Int("shards", runtime.GOMAXPROCS(0), "shard count for the self-hosted daemon")
		cache    = flag.Int("cache", serve.DefaultCacheEntries, "cache capacity for the self-hosted daemon")
		reports  = flag.Int("reports", 5000, "synthetic dataset size for the self-hosted daemon")
		seed     = flag.Uint64("seed", 20181031, "PRNG seed for the dataset and the query mix")
		out      = flag.String("out", "", "write the JSON report to this file (default stdout)")
	)
	flag.Parse()
	ladder, err := parseSteps(*steps)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcnrload:", err)
		os.Exit(1)
	}
	cfg := loadConfig{
		addr: *addr, steps: ladder, requests: *requests,
		shards: *shards, cache: *cache, reports: *reports, seed: *seed,
	}
	rep, err := runLoad(cfg, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcnrload:", err)
		os.Exit(1)
	}
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcnrload:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if *out == "" {
		_, _ = os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "dcnrload:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "dcnrload: wrote %s\n", *out)
}

// queryMix is the paper-figure-weighted endpoint mix. Weights are
// relative request shares; the paths are already normalized, so the set
// of distinct cache keys per generation equals the number of rows here.
var queryMix = []struct {
	path   string
	weight int
}{
	{"/query/count?by=device", 18},         // device-type mix (Fig. 4, Table 3)
	{"/query/count?by=year", 14},           // yearly growth (Fig. 2)
	{"/query/count?by=severity", 10},       // severity mix
	{"/query/count?by=year-severity", 10},  // Fig. 3
	{"/query/count?by=year-device", 8},     // Fig. 5
	{"/query/count?by=year-design", 6},     // design ablation
	{"/query/count?by=cause", 8},           // root causes (Table 2)
	{"/query/resolutions?by=device", 10},   // MTTR bands by type
	{"/query/resolutions?by=year", 6},      // MTTR trend
	{"/query/resolutions", 4},              // fleet-wide band
	{"/query/count?by=year&device=rsw", 4}, // rack-switch deep dive
	{"/query/count?severity=sev3", 2},      // filtered count
}

// loadConfig parameterizes one harness run.
type loadConfig struct {
	addr     string // "" = self-host
	steps    []int
	requests int
	shards   int
	cache    int
	reports  int
	seed     uint64
}

// stepResult is one concurrency step's measurements.
type stepResult struct {
	Concurrency  int     `json:"concurrency"`
	Requests     int     `json:"requests"`
	Errors       int     `json:"errors"`
	QPS          float64 `json:"qps"`
	P50Millis    float64 `json:"p50_ms"`
	P99Millis    float64 `json:"p99_ms"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// benchReport is the -out JSON shape.
type benchReport struct {
	Bench           string       `json:"bench"`
	CPUs            int          `json:"cpus"`
	Go              string       `json:"go"`
	Shards          int          `json:"shards"`
	CacheEntries    int          `json:"cache_entries"`
	Reports         int          `json:"reports"`
	RequestsPerStep int          `json:"requests_per_step"`
	MixQueries      int          `json:"mix_queries"`
	Steps           []stepResult `json:"steps"`
}

// runLoad runs the ladder and returns the report. With cfg.addr empty it
// self-hosts a daemon for the duration of the run.
func runLoad(cfg loadConfig, stderr io.Writer) (*benchReport, error) {
	target := cfg.addr
	shards := cfg.shards
	if target == "" {
		d, addr, err := selfHost(cfg)
		if err != nil {
			return nil, err
		}
		defer d.Shutdown()
		target = addr
		_, _ = fmt.Fprintf(stderr, "dcnrload: self-hosting %v with %d reports on %s\n", d, cfg.reports, addr)
	}
	base := "http://" + target

	maxC := 1
	for _, c := range cfg.steps {
		if c > maxC {
			maxC = c
		}
	}
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: maxC}}

	rep := &benchReport{
		Bench:           "serve",
		CPUs:            runtime.NumCPU(),
		Go:              runtime.Version(),
		Shards:          shards,
		CacheEntries:    cfg.cache,
		Reports:         cfg.reports,
		RequestsPerStep: cfg.requests,
		MixQueries:      len(queryMix),
	}
	for i, c := range cfg.steps {
		res, err := runStep(client, base, c, cfg.requests, cfg.seed+uint64(i)*1e6)
		if err != nil {
			return nil, err
		}
		rep.Steps = append(rep.Steps, res)
		_, _ = fmt.Fprintf(stderr, "dcnrload: c=%d qps=%.0f p50=%.2fms p99=%.2fms hit=%.0f%%\n",
			c, res.QPS, res.P50Millis, res.P99Millis, 100*res.CacheHitRate)
	}
	return rep, nil
}

// runStep replays the mix with c workers until the request budget is
// spent, then merges per-worker samples into one measurement.
func runStep(client *http.Client, base string, c, requests int, seed uint64) (stepResult, error) {
	type workerStats struct {
		latencies []float64 // milliseconds
		hits      int
		hdrs      int // responses carrying an X-Cache header
		errs      int
	}
	perWorker := (requests + c - 1) / c
	ws := make([]workerStats, c)
	var wg sync.WaitGroup
	start := time.Now()
	for w := range ws {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One deterministic PRNG stream per worker: same seed, same
			// replayed mix.
			rng := splitmix64(seed + uint64(w))
			st := &ws[w]
			st.latencies = make([]float64, 0, perWorker)
			for range perWorker {
				path := pickQuery(rng.next())
				t0 := time.Now()
				resp, err := client.Get(base + path)
				if err != nil {
					st.errs++
					continue
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				_ = resp.Body.Close()
				st.latencies = append(st.latencies, float64(time.Since(t0))/1e6)
				if resp.StatusCode != 200 {
					st.errs++
					continue
				}
				switch resp.Header.Get("X-Cache") {
				case "hit":
					st.hits++
					st.hdrs++
				case "miss":
					st.hdrs++
				}
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	var all []float64
	res := stepResult{Concurrency: c}
	hits, hdrs := 0, 0
	for _, st := range ws {
		all = append(all, st.latencies...)
		res.Requests += len(st.latencies)
		res.Errors += st.errs
		hits += st.hits
		hdrs += st.hdrs
	}
	if res.Requests == 0 {
		return res, fmt.Errorf("step c=%d: every request failed", c)
	}
	sort.Float64s(all)
	ps, err := stats.Percentiles(all, 50, 99)
	if err != nil {
		return res, err
	}
	res.QPS = float64(res.Requests) / elapsed
	res.P50Millis = ps[0]
	res.P99Millis = ps[1]
	if hdrs > 0 {
		res.CacheHitRate = float64(hits) / float64(hdrs)
	}
	return res, nil
}

// pickQuery maps one random draw onto the weighted mix.
func pickQuery(draw uint64) string {
	total := 0
	for _, q := range queryMix {
		total += q.weight
	}
	n := int(draw % uint64(total))
	for _, q := range queryMix {
		if n < q.weight {
			return q.path
		}
		n -= q.weight
	}
	return queryMix[0].path
}

// selfHost builds, seeds, and starts an in-process daemon on loopback.
func selfHost(cfg loadConfig) (*serve.Daemon, string, error) {
	dcfg := serve.Config{Addr: "127.0.0.1:0", Shards: cfg.shards, CacheEntries: cfg.cache}
	d, err := serve.NewDaemon(&dcfg)
	if err != nil {
		return nil, "", err
	}
	if _, err := d.Store().AddAll(syntheticReports(cfg.reports, cfg.seed)); err != nil {
		d.Shutdown()
		return nil, "", err
	}
	addr, err := d.Start()
	if err != nil {
		d.Shutdown()
		return nil, "", err
	}
	return d, addr, nil
}

// syntheticReports generates a deterministic dataset spread across the
// indexed dimensions: seven study years, every switch tier, the full
// severity ladder, and long-tailed resolution times.
func syntheticReports(n int, seed uint64) []sev.Report {
	devices := []string{
		"rsw%03d.cl%03d.dc%d.ra", "csw%03d.cl%03d.dc%d.ra", "csa%03d.dc%d.ra",
		"esw%03d.cl%03d.dc%d.ra", "ssw%03d.cl%03d.dc%d.ra", "fsw%03d.cl%03d.dc%d.ra",
	}
	rng := splitmix64(seed)
	out := make([]sev.Report, n)
	for i := range out {
		r := rng.next()
		tier := devices[r%uint64(len(devices))]
		var device string
		if strings.Count(tier, "%") == 3 {
			device = fmt.Sprintf(tier, 1+r%40, 1+(r>>8)%8, 1+(r>>16)%4)
		} else {
			device = fmt.Sprintf(tier, 1+r%40, 1+(r>>16)%4)
		}
		dur := 0.5 + float64((r>>32)%8)
		out[i] = sev.Report{
			Severity:   sev.Severity(1 + (r>>24)%3),
			Device:     device,
			Start:      float64(i * 2),
			Duration:   dur,
			Resolution: dur + float64((r>>40)%240)/2, // tail up to ~5 days
			Year:       2011 + int((r>>48)%7),
		}
	}
	return out
}

// parseSteps parses the "-steps 1,2,4" ladder.
func parseSteps(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		c, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || c < 1 {
			return nil, fmt.Errorf("bad -steps entry %q", part)
		}
		out = append(out, c)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty -steps")
	}
	return out, nil
}

// splitmix64 is the tiny deterministic PRNG behind the dataset and the
// mix sampling — stdlib-only and stable across runs.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
