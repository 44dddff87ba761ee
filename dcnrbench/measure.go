package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count). xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first and third quartile of xs by the method
// Python's statistics.quantiles(xs, n=4) uses by default ("exclusive"),
// so spreads computed here match the ones a Python reader computes.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return math.NaN(), math.NaN()
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// percentile returns the nearest-rank p-th percentile of the sorted
// sample s: the smallest value with at least p% of the samples at or
// below it.
func percentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile in a
// sorted sample of n values.
func rankIndex(n int, p float64) int {
	i := int(math.Ceil(p/100*float64(n))) - 1
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return i
}

// minBeyond is how many samples must lie above a percentile before it is
// reported: a tail read from fewer samples is one or two outliers.
const minBeyond = 10

// tailPercentile returns the highest percentile of ladder (ascending)
// that has at least minBeyond of n samples beyond it, and false when not
// even the lowest one has.
func tailPercentile(n int, ladder []float64) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range ladder {
		if n-1-rankIndex(n, p) >= minBeyond {
			best, ok = p, true
		}
	}
	return best, ok
}

// tailLadder is the set of percentiles tailPercentile chooses from.
var tailLadder = []float64{50, 75, 90, 99, 99.9}

// timing is one reported latency distribution: its median, the tail
// percentile named for it, and the sample count behind both.
type timing struct {
	Samples int     `json:"samples"`
	Named   float64 `json:"named_percentile"`
	// Supported is the highest percentile with minBeyond samples beyond
	// it; a named percentile above it is read from too few samples.
	Supported float64 `json:"supported_percentile"`
}

func describe(n int, named float64) timing {
	sup, _ := tailPercentile(n, tailLadder)
	return timing{Samples: n, Named: named, Supported: sup}
}

// runtimeStats is a snapshot of the process-wide allocation and CPU
// counters from runtime/metrics.
type runtimeStats struct {
	allocBytes, allocObjects uint64
	gcCPU, totalCPU          float64
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, name := range runtimeSampleNames {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeStats{
		allocBytes:   s[0].Value.Uint64(),
		allocObjects: s[1].Value.Uint64(),
		gcCPU:        s[2].Value.Float64(),
		totalCPU:     s[3].Value.Float64(),
	}
}

func (a runtimeStats) sub(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes:   a.allocBytes - b.allocBytes,
		allocObjects: a.allocObjects - b.allocObjects,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

func (a runtimeStats) add(b runtimeStats) runtimeStats {
	return runtimeStats{
		allocBytes:   a.allocBytes + b.allocBytes,
		allocObjects: a.allocObjects + b.allocObjects,
		gcCPU:        a.gcCPU + b.gcCPU,
		totalCPU:     a.totalCPU + b.totalCPU,
	}
}

// gcRatio is the share of the runtime's CPU time the garbage collector
// used over the interval.
func (a runtimeStats) gcRatio() float64 {
	if a.totalCPU <= 0 {
		return 0
	}
	return a.gcCPU / a.totalCPU
}

// peakRSSMB reads the process's resident-set high-water mark (VmHWM) in
// MiB.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		if err != nil {
			return 0, fmt.Errorf("parsing VmHWM: %w", err)
		}
		return kb / 1024, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// settle collects the garbage earlier operations left, so each timed
// operation starts from a collected heap, as it would in a fresh process,
// and one operation's garbage is not billed to the next.
func settle() { runtime.GC() }

// timeEach runs fn n times and returns each call's wall time in seconds.
func timeEach(n int, fn func() error) ([]float64, error) {
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return nil, err
		}
		out = append(out, time.Since(start).Seconds())
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// tally counts what a run attempted and what failed: operations that
// returned an error and output checks that did not match both count.
type tally struct {
	attempted, failed int
	notes             []string
}

// op records one attempted operation and its error, if any.
func (t *tally) op(err error) bool {
	t.attempted++
	if err != nil {
		t.fail(err.Error())
		return false
	}
	return true
}

// check records one output check.
func (t *tally) check(ok bool, format string, args ...any) bool {
	t.attempted++
	if !ok {
		t.fail(fmt.Sprintf(format, args...))
	}
	return ok
}

func (t *tally) fail(note string) {
	t.failed++
	if len(t.notes) < 20 {
		t.notes = append(t.notes, note)
	}
}
