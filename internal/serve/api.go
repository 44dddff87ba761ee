package serve

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

// params is one parsed query-endpoint request: the SEV filters plus the
// grouping dimension. Parsing canonicalizes every value (device and
// cause names are matched case-insensitively and re-rendered from the
// parsed value), so two spellings of the same query share one cache key.
type params struct {
	year     *int
	device   *topology.DeviceType
	severity *sev.Severity
	design   *topology.Design
	cause    *sev.RootCause
	since    *float64
	until    *float64
	by       string
}

func parseDeviceType(s string) (topology.DeviceType, error) {
	for _, t := range topology.DeviceTypes {
		if strings.EqualFold(s, t.String()) {
			return t, nil
		}
	}
	return 0, fmt.Errorf("unknown device type %q", s)
}

func parseDesign(s string) (topology.Design, error) {
	for _, d := range []topology.Design{topology.DesignShared, topology.DesignCluster, topology.DesignFabric} {
		if strings.EqualFold(s, d.String()) {
			return d, nil
		}
	}
	return 0, fmt.Errorf("unknown design %q", s)
}

func parseRootCause(s string) (sev.RootCause, error) {
	for _, c := range sev.RootCauses {
		if strings.EqualFold(s, c.String()) {
			return c, nil
		}
	}
	return 0, fmt.Errorf("unknown root cause %q", s)
}

// parseParams reads the filter/grouping query parameters. allowedBy
// lists the endpoint's valid `by` dimensions ("" entries allowed).
func parseParams(r *http.Request, allowedBy ...string) (params, error) {
	var p params
	q := r.URL.Query()
	if s := q.Get("year"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil {
			return p, fmt.Errorf("bad year: %v", err)
		}
		p.year = &v
	}
	if s := q.Get("device"); s != "" {
		t, err := parseDeviceType(s)
		if err != nil {
			return p, err
		}
		p.device = &t
	}
	if s := q.Get("severity"); s != "" {
		n, err := strconv.Atoi(strings.TrimPrefix(strings.ToUpper(s), "SEV"))
		if err != nil {
			return p, fmt.Errorf("bad severity: %v", err)
		}
		v := sev.Severity(n)
		if !v.Valid() {
			return p, fmt.Errorf("bad severity %d", n)
		}
		p.severity = &v
	}
	if s := q.Get("design"); s != "" {
		d, err := parseDesign(s)
		if err != nil {
			return p, err
		}
		p.design = &d
	}
	if s := q.Get("cause"); s != "" {
		c, err := parseRootCause(s)
		if err != nil {
			return p, err
		}
		p.cause = &c
	}
	for _, bound := range []struct {
		name string
		dst  **float64
	}{{"since", &p.since}, {"until", &p.until}} {
		if s := q.Get(bound.name); s != "" {
			v, err := strconv.ParseFloat(s, 64)
			if err != nil {
				return p, fmt.Errorf("bad %s: %v", bound.name, err)
			}
			*bound.dst = &v
		}
	}
	p.by = q.Get("by")
	for _, ok := range allowedBy {
		if p.by == ok {
			return p, nil
		}
	}
	return p, fmt.Errorf("bad by=%q (want one of %s)", p.by, strings.Join(allowedBy, "|"))
}

// normalized renders the params in canonical field order with canonical
// value spellings — the cache-key and ETag basis.
func (p params) normalized() string {
	var sb strings.Builder
	add := func(k, v string) {
		if sb.Len() > 0 {
			sb.WriteByte('&')
		}
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(v)
	}
	if p.year != nil {
		add("year", strconv.Itoa(*p.year))
	}
	if p.device != nil {
		add("device", p.device.String())
	}
	if p.severity != nil {
		add("severity", strconv.Itoa(int(*p.severity)))
	}
	if p.design != nil {
		add("design", p.design.String())
	}
	if p.cause != nil {
		add("cause", p.cause.String())
	}
	if p.since != nil {
		add("since", strconv.FormatFloat(*p.since, 'g', -1, 64))
	}
	if p.until != nil {
		add("until", strconv.FormatFloat(*p.until, 'g', -1, 64))
	}
	if p.by != "" {
		add("by", p.by)
	}
	return sb.String()
}

// apply narrows the fan-out query with every set filter.
func (p params) apply(q sev.ShardedQuery) sev.ShardedQuery {
	if p.year != nil {
		q = q.Year(*p.year)
	}
	if p.device != nil {
		q = q.DeviceType(*p.device)
	}
	if p.severity != nil {
		q = q.Severity(*p.severity)
	}
	if p.design != nil {
		q = q.Design(*p.design)
	}
	if p.cause != nil {
		q = q.RootCause(*p.cause)
	}
	if p.since != nil {
		q = q.Since(*p.since)
	}
	if p.until != nil {
		q = q.Until(*p.until)
	}
	return q
}

// etagFor derives the ETag for a normalized query over a dataset version:
// a deterministic function of the generation, the dataset epoch (the
// store's content hash), and the query, so If-None-Match revalidates
// without recomputing the aggregation — and a tag from one dataset never
// revalidates against another, even at the same generation.
func etagFor(gen, epoch uint64, path, norm string) string {
	h := fnv.New64a()
	var e [8]byte
	binary.LittleEndian.PutUint64(e[:], epoch)
	_, _ = h.Write(e[:])
	_, _ = h.Write([]byte(path))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(norm))
	return fmt.Sprintf("\"%d-%x\"", gen, h.Sum64())
}

// registerAPI mounts the query endpoints.
func (d *Daemon) registerAPI() {
	d.srv.Register("/query/count", d.cached(d.handleCount,
		"", "device", "severity", "year", "cause", "severity-device", "year-severity", "year-device", "year-design"))
	d.srv.Register("/query/resolutions", d.cached(d.handleResolutions,
		"", "device", "year"))
	d.srv.Register("/ingest", http.HandlerFunc(d.handleIngest))
	d.srv.Register("/stats", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		WriteJSON(w, d.stats())
	}))
}

// cached wraps a query handler with the normalize → ETag → LRU flow:
// parse and canonicalize the request, revalidate If-None-Match against
// the generation-bearing ETag (304, no recompute), then serve from the
// LRU or compute and fill it. Responses carry ETag and X-Cache (hit |
// miss) headers.
func (d *Daemon) cached(compute func(sev.ShardedQuery, params) (any, error), allowedBy ...string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			http.Error(w, "GET only", http.StatusMethodNotAllowed)
			return
		}
		started := time.Now()
		d.mQueries.Inc()
		p, err := parseParams(r, allowedBy...)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		norm := p.normalized()
		gen := d.store.Generation()
		etag := etagFor(gen, d.store.Epoch(), r.URL.Path, norm)
		w.Header().Set("ETag", etag)
		if r.Header.Get("If-None-Match") == etag {
			d.notModified.Add(1)
			d.mNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}
		key := fmt.Sprintf("%d|%s|%s", gen, r.URL.Path, norm)
		if body, ok := d.cache.get(key); ok {
			d.hits.Add(1)
			d.mHits.Inc()
			w.Header().Set("X-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			_, _ = w.Write(body)
			d.hLatency.Observe(time.Since(started).Seconds())
			return
		}
		d.misses.Add(1)
		d.mMisses.Inc()
		v, err := compute(p.apply(d.store.Query()), p)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		body, err := json.Marshal(v)
		if err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		body = append(body, '\n')
		d.cache.put(key, body)
		w.Header().Set("X-Cache", "miss")
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(body)
		d.hLatency.Observe(time.Since(started).Seconds())
	})
}

// countResponse is the GET /query/count body: Count for ungrouped
// queries, Groups (one- or two-level, canonical string keys) otherwise.
type countResponse struct {
	Count  *int           `json:"count,omitempty"`
	Groups map[string]any `json:"groups,omitempty"`
}

func countKeys[K comparable](m map[K]int, render func(K) string) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[render(k)] = v
	}
	return out
}

func nestedKeys[K1, K2 comparable](m map[K1]map[K2]int, r1 func(K1) string, r2 func(K2) string) map[string]any {
	out := make(map[string]any, len(m))
	for k1, row := range m {
		inner := make(map[string]int, len(row))
		for k2, v := range row {
			inner[r2(k2)] = v
		}
		out[r1(k1)] = inner
	}
	return out
}

func itoaKey(y int) string                   { return strconv.Itoa(y) }
func devKey(t topology.DeviceType) string    { return t.String() }
func sevKey(s sev.Severity) string           { return s.String() }
func causeKey(c sev.RootCause) string        { return c.String() }
func designKey(dn topology.Design) string    { return dn.String() }
func (d *Daemon) query() sev.ShardedQuery    { return d.store.Query() }
func groups(m map[string]any) *countResponse { return &countResponse{Groups: m} }
func scalar(n int) *countResponse            { return &countResponse{Count: &n} }

func (d *Daemon) handleCount(q sev.ShardedQuery, p params) (any, error) {
	switch p.by {
	case "":
		return scalar(q.Count()), nil
	case "device":
		return groups(countKeys(q.CountByDeviceType(), devKey)), nil
	case "severity":
		return groups(countKeys(q.CountBySeverity(), sevKey)), nil
	case "year":
		return groups(countKeys(q.CountByYear(), itoaKey)), nil
	case "cause":
		return groups(countKeys(q.CountByRootCause(), causeKey)), nil
	case "severity-device":
		return groups(nestedKeys(q.CountBySeverityDeviceType(), sevKey, devKey)), nil
	case "year-severity":
		return groups(nestedKeys(q.CountByYearSeverity(), itoaKey, sevKey)), nil
	case "year-device":
		return groups(nestedKeys(q.CountByYearDeviceType(), itoaKey, devKey)), nil
	case "year-design":
		return groups(nestedKeys(q.CountByYearDesign(), itoaKey, designKey)), nil
	}
	return nil, fmt.Errorf("bad by=%q", p.by)
}

// band summarizes one resolution-time sample set as percentile bands
// (hours): the shape Figures 13/14 plot.
type band struct {
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P75   float64 `json:"p75"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
}

func makeBand(xs []float64) (band, error) {
	ps, err := stats.Percentiles(xs, 50, 75, 90, 99)
	if err != nil {
		return band{}, err
	}
	return band{Count: len(xs), Mean: stats.Mean(xs), P50: ps[0], P75: ps[1], P90: ps[2], P99: ps[3]}, nil
}

// resolutionsResponse is the GET /query/resolutions body: percentile
// bands per group ("all" for ungrouped queries). Empty groups are
// omitted — a percentile of nothing is undefined, not zero.
type resolutionsResponse struct {
	Groups map[string]band `json:"groups"`
}

func (d *Daemon) handleResolutions(q sev.ShardedQuery, p params) (any, error) {
	samples := make(map[string][]float64)
	switch p.by {
	case "":
		if xs := q.Resolutions(); len(xs) > 0 {
			samples["all"] = xs
		}
	case "device":
		for t, xs := range q.ResolutionsByDeviceType() {
			samples[devKey(t)] = xs
		}
	case "year":
		for y, xs := range q.ResolutionsByYear() {
			samples[itoaKey(y)] = xs
		}
	default:
		return nil, fmt.Errorf("bad by=%q", p.by)
	}
	out := resolutionsResponse{Groups: make(map[string]band, len(samples))}
	for k, xs := range samples {
		if len(xs) == 0 {
			continue
		}
		b, err := makeBand(xs)
		if err != nil {
			return nil, err
		}
		out.Groups[k] = b
	}
	return out, nil
}

// handleIngest is POST /ingest: a JSON array of reports ingested as one
// batch (IDs assigned when zero, duplicates rejected atomically),
// bumping the dataset generation — which invalidates every cached
// response at once.
func (d *Daemon) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	var reports []sev.Report
	if err := json.NewDecoder(r.Body).Decode(&reports); err != nil {
		http.Error(w, "decoding batch: "+err.Error(), http.StatusBadRequest)
		return
	}
	ids, err := d.store.AddAll(reports)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	d.ingested.Add(uint64(len(ids)))
	d.mIngestBatches.Inc()
	d.mIngestReports.Add(int64(len(ids)))
	sort.Ints(ids)
	WriteJSON(w, struct {
		Ingested   int    `json:"ingested"`
		Generation uint64 `json:"generation"`
	}{len(ids), d.store.Generation()})
}
