package main

import "testing"

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{n: 19, ok: false},            // the median has only 9 samples above it
		{n: 21, want: 50, ok: true},   // 10 above the median, 5 above p75
		{n: 100, want: 90, ok: true},  // 10 above p90, 1 above p99
		{n: 1000, want: 99, ok: true}, // 10 above p99, 1 above p99.9
		{n: 10999, want: 99.9, ok: true},
	} {
		got, ok := tailPercentile(tc.n, tailLadder)
		if ok != tc.ok || got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, got, ok, tc.want, tc.ok)
		}
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	// statistics.quantiles([1, ..., 10], n=4) == [2.75, 5.5, 8.25] and
	// statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75].
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{4, 1, 3, 2}, 1.25, 3.75},
	} {
		q1, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 10: 1} {
		if got := percentile(s, p); got != want {
			t.Errorf("percentile(p%v) = %v, want %v", p, got, want)
		}
	}
}
