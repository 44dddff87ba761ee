package serve

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"dcnr/internal/sev"
	"dcnr/internal/stats"
	"dcnr/internal/topology"
)

// params is one parsed query-endpoint request: the SEV filter plus the
// grouping dimension.
type params struct {
	filter sev.Filter
	by     string
}

// parseParams reads the filter/grouping query parameters: `by` here,
// every other key through sev.ParseFilter. allowedBy lists the endpoint's
// valid `by` dimensions ("" entries allowed).
func parseParams(r *http.Request, allowedBy ...string) (params, error) {
	var p params
	q := r.URL.Query()
	by := q["by"]
	delete(q, "by")
	if len(by) > 1 {
		return p, fmt.Errorf("repeated query key %q", "by")
	}
	if len(by) == 1 {
		p.by = by[0]
	}
	var err error
	if p.filter, err = sev.ParseFilter(q); err != nil {
		return p, err
	}
	if !slices.Contains(allowedBy, p.by) {
		return p, fmt.Errorf("bad by=%q (want one of %s)", p.by, strings.Join(allowedBy, "|"))
	}
	return p, nil
}

// key is the canonical query — the filter's canonical encoding, then by —
// behind the cache key and the ETag: two spellings of one query share it.
func (p params) key() string {
	k := p.filter.String()
	if p.by == "" {
		return k
	}
	if k != "" {
		k += "&"
	}
	return k + "by=" + p.by
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
	d.srv.Register("/query/count", d.cached(countBody,
		"", "device", "severity", "year", "cause", "severity-device", "year-severity", "year-device", "year-design"))
	d.srv.Register("/query/resolutions", d.cached(resolutionsBody,
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
func (d *Daemon) cached(compute func(q sev.Query, by string) (any, error), allowedBy ...string) http.Handler {
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
		norm := p.key()
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
		v, err := compute(d.store.Query().Where(p.filter), p.by)
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
func groups(m map[string]any) *countResponse { return &countResponse{Groups: m} }
func scalar(n int) *countResponse            { return &countResponse{Count: &n} }

func countBody(q sev.Query, by string) (any, error) {
	switch by {
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
	return nil, fmt.Errorf("bad by=%q", by)
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

func resolutionsBody(q sev.Query, by string) (any, error) {
	samples := make(map[string][]float64)
	switch by {
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
		return nil, fmt.Errorf("bad by=%q", by)
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

// maxIngestBytes caps a POST /ingest body, some 30,000 reports; a longer
// one is answered 413. Whole datasets load through LoadJSON instead.
const maxIngestBytes = 8 << 20

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
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxIngestBytes)).Decode(&reports); err != nil {
		code := http.StatusBadRequest
		if tooLarge := new(http.MaxBytesError); errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		http.Error(w, "decoding batch: "+err.Error(), code)
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
