package obs

import (
	"math"
	"strconv"
	"testing"
)

func TestAppendFixed(t *testing.T) {
	cases := []struct {
		v      float64
		digits int
		want   string
	}{
		{0, 6, "0"},
		{math.Copysign(0, -1), 6, "0"},
		{-2.5, 6, "-2.5"},
		{24.000001, 6, "24.000001"},
		{-1e-7, 6, "-0"}, // rounds to zero, keeps the sign
		{0.0000005, 6, "0.000001"},
		{12.5, 3, "12.5"},
		{11.9999, 3, "12"},
		{1.0005, 3, "1.001"}, // half-up
		{-7, 3, "-7"},
		{123456.789, 0, "123457"},
		// Range bound 9e18/10^digits: 9e12 at 6 digits, 9e15 at 3.
		{8.9e12, 6, "8900000000000"},
		{9e12, 6, "9e+12"},
		{1e13, 6, "1e+13"},
		{8.9e15, 3, "8900000000000000"},
		{9e15, 3, "9e+15"},
		{-1e16, 3, "-1e+16"},
		{math.Inf(1), 6, "+Inf"},
		{math.Inf(-1), 6, "-Inf"},
		{math.NaN(), 3, "NaN"},
	}
	for _, c := range cases {
		if got := string(AppendFixed(nil, c.v, c.digits)); got != c.want {
			t.Errorf("AppendFixed(%v, %d) = %q, want %q", c.v, c.digits, got, c.want)
		}
	}
}

// TestAppendFixedIntegersExact checks integral values above 2^53/10^digits,
// where the scaled product v*10^digits is no longer exact: they must print
// as the exact integer, never with a spurious fraction.
func TestAppendFixedIntegersExact(t *testing.T) {
	for _, digits := range []int{3, 6} {
		bound := 9e18 / math.Pow10(digits)
		for v := math.Exp2(53) / math.Pow10(digits); v < bound; v = v*1.37 + 1 {
			iv := math.Floor(v)
			want := strconv.FormatUint(uint64(iv), 10)
			if got := string(AppendFixed(nil, iv, digits)); got != want {
				t.Errorf("AppendFixed(%v, %d) = %q, want %q", iv, digits, got, want)
			}
		}
	}
}

// TestAppendFixedRoundTrips checks that in-range values re-parse to within
// half a unit of the last kept digit.
func TestAppendFixedRoundTrips(t *testing.T) {
	for _, digits := range []int{3, 6} {
		ulp := math.Pow10(-digits)
		for _, v := range []float64{0.1, 1.25, 3.14159265, 61320.000123, 4.2e9 + 0.5, -17.0625} {
			got, err := strconv.ParseFloat(string(AppendFixed(nil, v, digits)), 64)
			if err != nil {
				t.Fatal(err)
			}
			if d := math.Abs(got - v); d > ulp/2*(1+1e-9)+math.Abs(v)*1e-15 {
				t.Errorf("AppendFixed(%v, %d) re-parses to %v (off by %g)", v, digits, got, d)
			}
		}
	}
}
