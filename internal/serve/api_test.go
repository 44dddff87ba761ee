package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"dcnr/internal/obs"
	"dcnr/internal/observe"
	"dcnr/internal/sev"
)

// daemonReports builds n valid reports across the indexed dimensions.
func daemonReports(n, base int) []sev.Report {
	devices := []string{
		"rsw001.cl001.dc1.ra", "csw001.cl001.dc1.ra", "csa001.dc1.ra",
		"esw001.cl001.dc1.ra", "ssw001.cl001.dc1.ra",
	}
	out := make([]sev.Report, n)
	for i := range out {
		k := base + i
		out[i] = sev.Report{
			Severity:   sev.Severity(1 + k%3),
			Device:     devices[k%len(devices)],
			Start:      float64(k * 3),
			Duration:   1,
			Resolution: float64(2 + k%7),
			Year:       2011 + k%7,
		}
	}
	return out
}

// startDaemon builds, seeds, and starts a daemon, returning its base URL
// and a cleanup-registered handle.
func startDaemon(t *testing.T, cfg Config, seed int) (*Daemon, string) {
	t.Helper()
	cfg.Addr = "127.0.0.1:0"
	d, err := NewDaemon(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Shutdown)
	if seed > 0 {
		if _, err := d.Store().AddAll(daemonReports(seed, 0)); err != nil {
			t.Fatal(err)
		}
	}
	addr, err := d.Start()
	if err != nil {
		t.Fatal(err)
	}
	return d, "http://" + addr
}

func getJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	_ = resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %d %s", url, resp.StatusCode, body)
	}
	if v != nil {
		if err := json.Unmarshal(body, v); err != nil {
			t.Fatalf("GET %s: decoding %q: %v", url, body, err)
		}
	}
	return resp
}

// TestDaemonQueryEndpoints cross-checks the HTTP aggregations against
// direct store queries.
func TestDaemonQueryEndpoints(t *testing.T) {
	d, base := startDaemon(t, Config{Shards: 3}, 200)
	var count struct {
		Count *int `json:"count"`
	}
	getJSON(t, base+"/query/count", &count)
	if count.Count == nil || *count.Count != 200 {
		t.Fatalf("/query/count = %+v, want 200", count)
	}
	var bySev struct {
		Groups map[string]int `json:"groups"`
	}
	getJSON(t, base+"/query/count?by=severity", &bySev)
	want := d.Store().Query().CountBySeverity()
	for s, n := range want {
		if bySev.Groups[s.String()] != n {
			t.Errorf("by=severity[%s] = %d, want %d", s, bySev.Groups[s.String()], n)
		}
	}
	// Filtered + grouped, with canonicalized device spelling.
	var nested struct {
		Groups map[string]map[string]int `json:"groups"`
	}
	getJSON(t, base+"/query/count?by=year-severity&device=rsw", &nested)
	if len(nested.Groups) == 0 {
		t.Error("year-severity with device filter returned no groups")
	}
	var res struct {
		Groups map[string]struct {
			Count int     `json:"count"`
			P50   float64 `json:"p50"`
			P99   float64 `json:"p99"`
		} `json:"groups"`
	}
	getJSON(t, base+"/query/resolutions", &res)
	if res.Groups["all"].Count != 200 || res.Groups["all"].P99 < res.Groups["all"].P50 {
		t.Errorf("/query/resolutions = %+v", res.Groups["all"])
	}
	getJSON(t, base+"/query/resolutions?by=device", &res)
	if len(res.Groups) == 0 {
		t.Error("resolutions by=device empty")
	}
	// Bad requests 400.
	for _, bad := range []string{
		"/query/count?by=bogus", "/query/count?year=twenty",
		"/query/count?device=nope", "/query/resolutions?by=severity",
	} {
		resp, err := http.Get(base + bad)
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		if resp.StatusCode != 400 {
			t.Errorf("GET %s: %d, want 400", bad, resp.StatusCode)
		}
	}
}

// TestDaemonCacheGenerationBump is the LRU invalidation-on-ingest test:
// a repeated query hits the cache and revalidates to 304; POST /ingest
// bumps the generation, after which the same query misses (new key, new
// ETag) and returns the new result.
func TestDaemonCacheGenerationBump(t *testing.T) {
	d, base := startDaemon(t, Config{Shards: 2}, 50)
	url := base + "/query/count"

	resp1 := getJSON(t, url, nil)
	if xc := resp1.Header.Get("X-Cache"); xc != "miss" {
		t.Fatalf("first query X-Cache = %q", xc)
	}
	etag := resp1.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on query response")
	}
	resp2 := getJSON(t, url, nil)
	if xc := resp2.Header.Get("X-Cache"); xc != "hit" {
		t.Errorf("repeated query X-Cache = %q, want hit", xc)
	}
	if resp2.Header.Get("ETag") != etag {
		t.Errorf("ETag changed without ingest: %q -> %q", etag, resp2.Header.Get("ETag"))
	}
	// Conditional revalidation: 304 without recompute.
	req, _ := http.NewRequest("GET", url, nil)
	req.Header.Set("If-None-Match", etag)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp3.Body.Close()
	if resp3.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match status = %d, want 304", resp3.StatusCode)
	}

	// Ingest bumps the generation: same query, new ETag, cache miss, new
	// count.
	batch, _ := json.Marshal(daemonReports(25, 1000))
	ir, err := http.Post(base+"/ingest", "application/json", bytes.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	ingestBody, _ := io.ReadAll(ir.Body)
	_ = ir.Body.Close()
	if ir.StatusCode != 200 {
		t.Fatalf("POST /ingest: %d %s", ir.StatusCode, ingestBody)
	}
	if !strings.Contains(string(ingestBody), `"ingested":25`) {
		t.Errorf("ingest response = %s", ingestBody)
	}

	var after struct {
		Count *int `json:"count"`
	}
	resp4 := getJSON(t, url, &after)
	if xc := resp4.Header.Get("X-Cache"); xc != "miss" {
		t.Errorf("post-ingest query X-Cache = %q, want miss", xc)
	}
	if resp4.Header.Get("ETag") == etag {
		t.Error("ETag unchanged across an ingest")
	}
	if after.Count == nil || *after.Count != 75 {
		t.Errorf("post-ingest count = %+v, want 75", after)
	}
	// The stale pre-ingest ETag no longer revalidates.
	req2, _ := http.NewRequest("GET", url, nil)
	req2.Header.Set("If-None-Match", etag)
	resp5, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	_ = resp5.Body.Close()
	if resp5.StatusCode == http.StatusNotModified {
		t.Error("stale ETag revalidated after ingest")
	}
	if g := d.Generation(); g != 2 {
		t.Errorf("generation = %d, want 2 (seed batch + ingest)", g)
	}
}

// TestDaemonIngestRejectsBadBatch pins atomic rejection over HTTP:
// invalid reports and duplicate IDs answer 400 without partial ingest or
// a generation bump.
func TestDaemonIngestRejectsBadBatch(t *testing.T) {
	d, base := startDaemon(t, Config{Shards: 2}, 10)
	gen := d.Generation()
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(base+"/ingest", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		_ = resp.Body.Close()
		return resp.StatusCode
	}
	if code := post(`not json`); code != 400 {
		t.Errorf("malformed body: %d", code)
	}
	if code := post(`[{"severity":9,"device":"rsw001.cl001.dc1.ra"}]`); code != 400 {
		t.Errorf("invalid report: %d", code)
	}
	if code := post(`[{"id":1,"severity":3,"device":"rsw001.cl001.dc1.ra","duration":1,"resolution":2,"year":2017}]`); code != 400 {
		t.Errorf("duplicate ID: %d", code)
	}
	if d.Generation() != gen {
		t.Error("generation bumped by rejected ingest")
	}
	var count struct {
		Count *int `json:"count"`
	}
	getJSON(t, base+"/query/count", &count)
	if *count.Count != 10 {
		t.Errorf("count after rejected batches = %d", *count.Count)
	}
	// GET on /ingest and POST on query endpoints are method errors.
	resp, _ := http.Get(base + "/ingest")
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /ingest: %d", resp.StatusCode)
	}
}

// TestDaemonIngestBodyCap pins the /ingest size bound: a body past
// maxIngestBytes is answered 413 and ingests nothing. The body is one
// unfinished JSON array, so the decoder reads until the cap trips.
func TestDaemonIngestBodyCap(t *testing.T) {
	d, _ := startDaemon(t, Config{Shards: 2}, 10)
	gen := d.Generation()
	body := strings.NewReader("[" + strings.Repeat(" ", maxIngestBytes))
	rec := httptest.NewRecorder()
	d.handleIngest(rec, httptest.NewRequest(http.MethodPost, "/ingest", body))
	if rec.Code != http.StatusRequestEntityTooLarge {
		t.Errorf("over-cap body: %d %s, want 413", rec.Code, rec.Body)
	}
	if d.Generation() != gen || d.Store().Len() != 10 {
		t.Errorf("over-cap body moved the dataset: generation %d -> %d, %d reports", gen, d.Generation(), d.Store().Len())
	}
}

// TestDaemonStatsAndMetrics checks /stats counters and the serve_*
// series when a registry is attached.
func TestDaemonStatsAndMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	d, base := startDaemon(t, Config{Shards: 2, Obs: observe.Observe{Metrics: reg}}, 20)
	getJSON(t, base+"/query/count", nil)
	getJSON(t, base+"/query/count", nil)
	var st statsResponse
	getJSON(t, base+"/stats", &st)
	if st.Reports != 20 || st.Shards != 2 {
		t.Errorf("stats = %+v", st)
	}
	if st.CacheHits != 1 || st.CacheMisses != 1 {
		t.Errorf("cache stats = hits %d misses %d, want 1/1", st.CacheHits, st.CacheMisses)
	}
	if v := reg.Counter("serve_cache_hits_total").Value(); v != 1 {
		t.Errorf("serve_cache_hits_total = %d", v)
	}
	if v := reg.Counter("serve_queries_total").Value(); v != 2 {
		t.Errorf("serve_queries_total = %d", v)
	}
	_ = d
}

// TestDaemonLRUCapacityEviction: a cache smaller than the query set
// still serves correct results, just with misses.
func TestDaemonLRUCapacityEviction(t *testing.T) {
	_, base := startDaemon(t, Config{Shards: 1, CacheEntries: 2}, 30)
	urls := []string{
		base + "/query/count",
		base + "/query/count?by=severity",
		base + "/query/count?by=year",
		base + "/query/count?by=device",
	}
	for range [3]int{} {
		for _, u := range urls {
			getJSON(t, u, nil)
		}
	}
	var st statsResponse
	getJSON(t, base+"/stats", &st)
	if st.CacheEntries > 2 {
		t.Errorf("cache entries = %d, cap 2", st.CacheEntries)
	}
}

// TestDaemonNormalizedKeys: different spellings of one query share a
// cache entry.
func TestDaemonNormalizedKeys(t *testing.T) {
	_, base := startDaemon(t, Config{Shards: 2}, 20)
	r1 := getJSON(t, base+"/query/count?device=rsw&year=2013", nil)
	if r1.Header.Get("X-Cache") != "miss" {
		t.Fatalf("first spelling: %q", r1.Header.Get("X-Cache"))
	}
	r2 := getJSON(t, base+"/query/count?year=2013&device=RSW", nil)
	if r2.Header.Get("X-Cache") != "hit" {
		t.Errorf("re-spelled query X-Cache = %q, want hit", r2.Header.Get("X-Cache"))
	}
	if r1.Header.Get("ETag") != r2.Header.Get("ETag") {
		t.Errorf("spellings got different ETags: %q vs %q", r1.Header.Get("ETag"), r2.Header.Get("ETag"))
	}
}

// TestDaemonString is a smoke test for the log description.
func TestDaemonString(t *testing.T) {
	cfg := Config{Shards: 2, CacheEntries: 8, Addr: "127.0.0.1:0"}
	d, err := NewDaemon(&cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Shutdown()
	if got := fmt.Sprint(d); got != "dcnrd{shards: 2, cache: 8}" {
		t.Errorf("String = %q", got)
	}
}

// TestCanonicalKeysPinned pins the canonical query text behind cache keys
// and ETags. Every expected string was captured from the daemon before
// its filter grammar moved into sev.ParseFilter, so a change here moves
// every cache key and ETag.
func TestCanonicalKeysPinned(t *testing.T) {
	allowed := []string{"", "device", "severity", "year", "cause",
		"severity-device", "year-severity", "year-device", "year-design"}
	for _, c := range []struct{ raw, want string }{
		{"", ""},
		{"by=severity", "by=severity"},
		{"device=rsw&year=2013", "year=2013&device=RSW"},
		{"year=2013&device=RSW", "year=2013&device=RSW"},
		{"severity=SEV2", "severity=2"},
		{"severity=sev2&by=device", "severity=2&by=device"},
		{"severity=2", "severity=2"},
		{"severity=%2B03", "severity=3"},
		{"design=FABRIC", "design=Fabric"},
		{"by=year-device&design=cluster", "design=Cluster&by=year-device"},
		{"cause=maintenance", "cause=Maintenance"},
		{"cause=HARDWARE&severity=3&year=2017", "year=2017&severity=3&cause=Hardware"},
		{"cause=capacity+PLANNING", "cause=Capacity planning"},
		{"cause=Capacity%20planning&by=year", "cause=Capacity planning&by=year"},
		{"since=1e3&until=2000.50", "since=1000&until=2000.5"},
		{"since=-1e-7&until=1E%2B22", "since=-1e-07&until=1e+22"},
		{"until=%2BInf&since=-inf", "since=-Inf&until=+Inf"},
		{"since=0x1p4", "since=16"},
		{"since=-0", "since=-0"},
		{"year=%2B02014", "year=2014"},
		{"year=-5", "year=-5"},
		{"by=year-severity&until=20&since=10&severity=SEV1&design=Fabric&cause=Bug&device=core&year=2015",
			"year=2015&device=Core&severity=1&design=Fabric&cause=Bug&since=10&until=20&by=year-severity"},
		{"year=&device=fsw", "device=FSW"},
		{"device=Csa&by=cause", "device=CSA&by=cause"},
		{"device=bbr&since=.5", "device=BBR&since=0.5"},
		{"design=shared&by=severity-device", "design=Shared&by=severity-device"},
	} {
		r := httptest.NewRequest(http.MethodGet, "/query/count?"+c.raw, nil)
		p, err := parseParams(r, allowed...)
		if err != nil {
			t.Errorf("%q: %v", c.raw, err)
			continue
		}
		if got := p.key(); got != c.want {
			t.Errorf("%q: key %q, want %q", c.raw, got, c.want)
		}
	}
}

// TestDaemonRejectsBadKeys: an unknown, misspelled or repeated query key
// is a 400 naming the key, never a silently unfiltered answer; a NaN
// window bound is a 400 on the index and the time-window path alike.
func TestDaemonRejectsBadKeys(t *testing.T) {
	_, base := startDaemon(t, Config{Shards: 2}, 50)
	for q, key := range map[string]string{
		"type=RSW":            "type",
		"year=2013&year=2014": "year",
		"yaer=2013":           "yaer",
		"by=year&by=device":   "by",
		"since=NaN":           "since",
		"year=2013&since=NaN": "since",
		"until=nan&by=device": "until",
	} {
		resp, err := http.Get(base + "/query/count?" + q)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("?%s: %d %s, want 400", q, resp.StatusCode, body)
		} else if !strings.Contains(string(body), fmt.Sprintf("%q", key)) &&
			!strings.Contains(string(body), key+" ") {
			t.Errorf("?%s: message %q does not name %q", q, body, key)
		}
	}
	// Infinite bounds stay valid.
	var count struct {
		Count *int `json:"count"`
	}
	getJSON(t, base+"/query/count?since=-Inf&until=%2BInf", &count)
	if count.Count == nil || *count.Count != 50 {
		t.Errorf("infinite window count = %+v, want 50", count)
	}
}
