package main

import (
	"math"
	"sort"
	"strconv"
	"strings"

	"dcnr/internal/fleet"
	"dcnr/internal/sev"
	"dcnr/internal/topology"
)

// qspec is one distinct query of the serve mix: an endpoint/grouping
// shape narrowed by optional year, device and severity filters.
type qspec struct {
	endpoint string // "count" or "resolutions"
	by       string
	year     int                  // 0: no filter
	device   *topology.DeviceType // nil: no filter
	severity sev.Severity         // 0: no filter
}

// The twelve endpoint/grouping shapes dcnrd serves.
var (
	countBys      = []string{"", "device", "severity", "year", "cause", "severity-device", "year-severity", "year-device", "year-design"}
	resolutionBys = []string{"", "device", "year"}
)

// keySpace enumerates every distinct query of the mix, in a fixed order:
// 12 shapes × (no year or one of 7) × (no device or one of 8) × (no
// severity or one of 3) = 3456 queries, about three times dcnrd's default
// 1024-entry cache.
func keySpace() []qspec {
	years := []int{0}
	for y := fleet.FirstYear; y <= fleet.LastYear; y++ {
		years = append(years, y)
	}
	devices := []*topology.DeviceType{nil}
	for i := range topology.DeviceTypes {
		devices = append(devices, &topology.DeviceTypes[i])
	}
	sevs := append([]sev.Severity{0}, sev.Severities...)
	var shapes []qspec
	for _, by := range countBys {
		shapes = append(shapes, qspec{endpoint: "count", by: by})
	}
	for _, by := range resolutionBys {
		shapes = append(shapes, qspec{endpoint: "resolutions", by: by})
	}
	var out []qspec
	for _, sh := range shapes {
		for _, y := range years {
			for _, d := range devices {
				for _, s := range sevs {
					q := sh
					q.year, q.device, q.severity = y, d, s
					out = append(out, q)
				}
			}
		}
	}
	return out
}

// url renders the query as dcnrd's request path.
func (q qspec) url() string {
	var params []string
	if q.year != 0 {
		params = append(params, "year="+strconv.Itoa(q.year))
	}
	if q.device != nil {
		params = append(params, "device="+q.device.String())
	}
	if q.severity != 0 {
		params = append(params, "severity="+strconv.Itoa(int(q.severity)))
	}
	if q.by != "" {
		params = append(params, "by="+q.by)
	}
	u := "/query/" + q.endpoint
	if len(params) > 0 {
		u += "?" + strings.Join(params, "&")
	}
	return u
}

// mix draws queries from the key space with zipf(s) popularity: the
// query at popularity rank r (1-based) has weight 1/r^s. Which query
// holds which rank is a seeded permutation, and draw k is a pure
// function of (seed, k), so the request sequence is the same however the
// two client connections interleave.
type mix struct {
	seed uint64
	keys []qspec
	cdf  []float64 // cdf[r] is the probability of a rank <= r (0-based)
	rank []int     // rank → index into keys
}

func newMix(keys []qspec, seed uint64, s float64) *mix {
	m := &mix{seed: seed, keys: keys, cdf: make([]float64, len(keys)), rank: make([]int, len(keys))}
	total := 0.0
	for r := range keys {
		total += 1 / math.Pow(float64(r+1), s)
		m.cdf[r] = total
	}
	for r := range m.cdf {
		m.cdf[r] /= total
	}
	for i := range m.rank {
		m.rank[i] = i
	}
	state := seed
	for i := len(m.rank) - 1; i > 0; i-- {
		j := int(splitmix64(&state) % uint64(i+1))
		m.rank[i], m.rank[j] = m.rank[j], m.rank[i]
	}
	return m
}

// at returns the key index of draw k.
func (m *mix) at(k uint64) int {
	state := m.seed ^ (k * 0x9e3779b97f4a7c15)
	u := float64(splitmix64(&state)>>11) / (1 << 53)
	r := sort.SearchFloat64s(m.cdf, u)
	if r >= len(m.cdf) {
		r = len(m.cdf) - 1
	}
	return m.rank[r]
}

// splitmix64 advances state and returns the next value of the SplitMix64
// sequence.
func splitmix64(state *uint64) uint64 {
	*state += 0x9e3779b97f4a7c15
	z := *state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
