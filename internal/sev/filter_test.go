package sev

import (
	"net/url"
	"strings"
	"testing"

	"dcnr/internal/topology"
)

// canonicalValues splits a Filter.String encoding back into values. The
// encoding is not URL-escaped ("until=+Inf"), so it splits on '&' and the
// first '=' without unescaping.
func canonicalValues(s string) url.Values {
	v := url.Values{}
	if s == "" {
		return v
	}
	for _, pair := range strings.Split(s, "&") {
		k, val, _ := strings.Cut(pair, "=")
		v[k] = append(v[k], val)
	}
	return v
}

func mustParseFilter(t *testing.T, raw string) Filter {
	t.Helper()
	v, err := url.ParseQuery(raw)
	if err != nil {
		t.Fatalf("ParseQuery(%q): %v", raw, err)
	}
	f, err := ParseFilter(v)
	if err != nil {
		t.Fatalf("ParseFilter(%q): %v", raw, err)
	}
	return f
}

func TestParseFilterRejects(t *testing.T) {
	for _, raw := range []string{
		"type=RSW", "yaer=2013", "by=year",
		"year=2013&year=2014", "device=RSW&device=RSW",
		"year=twenty", "device=nope", "device=RSW001", "device=rsw.x",
		"severity=0", "severity=SEV4", "severity=high",
		"design=spine", "cause=Gremlins",
		"since=NaN", "until=nan", "year=2013&since=NaN", "since=1e400",
	} {
		v, err := url.ParseQuery(raw)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", raw, err)
		}
		if f, err := ParseFilter(v); err == nil {
			t.Errorf("ParseFilter(%q) = %q, want error", raw, f)
		}
	}
}

// TestWhereMatchesBuilders: a parsed Filter narrows a query exactly like
// the equivalent builder chain, and Where on top of builders overrides
// only the predicates the filter sets.
func TestWhereMatchesBuilders(t *testing.T) {
	s := NewStore()
	if _, err := s.AddAll(shardReports(300, 0)); err != nil {
		t.Fatal(err)
	}
	f := mustParseFilter(t, "year=2013&device=csw&severity=sev2&design=Cluster&cause=hardware&since=10&until=1400")
	got := s.Query().Where(f).Reports()
	want := s.Query().Year(2013).DeviceType(topology.CSW).Severity(Sev2).
		Design(topology.DesignCluster).RootCause(Hardware).Since(10).Until(1400).Reports()
	if len(got) != len(want) {
		t.Fatalf("Where: %d reports, builders: %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			t.Fatalf("Where report %d = ID %d, builders ID %d", i, got[i].ID, want[i].ID)
		}
	}
	over := s.Query().Year(2011).Severity(Sev1).Where(mustParseFilter(t, "year=2014"))
	if got, want := over.Count(), s.Query().Year(2014).Severity(Sev1).Count(); got != want {
		t.Errorf("Where override: %d, want %d", got, want)
	}
	if got, want := s.Query().Where(Filter{}).Count(), s.Len(); got != want {
		t.Errorf("zero Filter matched %d of %d", got, want)
	}
}

// FuzzParseFilter is the property test for the one filter grammar behind
// dcnrd's cache keys and ETags: every accepted input re-parses from its
// canonical String to an equal Filter with the same String, and two
// inputs that parse to different Filters never share a String.
func FuzzParseFilter(f *testing.F) {
	for _, seed := range [][2]string{
		{"", "year=2013"},
		{"device=rsw&year=2013", "year=2013&device=RSW"},
		{"severity=SEV2", "severity=2"},
		{"severity=sev3", "severity=%2B03"},
		{"design=FABRIC", "design=cluster"},
		{"cause=capacity+PLANNING", "cause=Capacity%20planning"},
		{"cause=Bug", "cause=bug&year="},
		{"since=1e3&until=2000.50", "since=1000&until=2000.5"},
		{"until=%2BInf&since=-inf", "since=-0"},
		{"since=0x1p4", "since=16"},
		{"since=-1e-7&until=1E%2B22", "until=1e22"},
		{"year=%2B02014", "year=-5"},
		{"year=2015&device=core&severity=SEV1&design=Fabric&cause=Bug&since=10&until=20", "device=bbr&since=.5"},
		{"since=NaN", "type=RSW"},
		{"year=2013&year=2014", "yaer=2013"},
	} {
		f.Add(seed[0], seed[1])
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		fa, sa, okA := roundTrip(t, a)
		fb, sb, okB := roundTrip(t, b)
		if okA && okB && fa != fb && sa == sb {
			t.Errorf("different filters %q and %q share String %q", a, b, sa)
		}
	})
}

// roundTrip parses raw and checks the String round trip; ok is false when
// raw is not an accepted filter.
func roundTrip(t *testing.T, raw string) (Filter, string, bool) {
	t.Helper()
	v, err := url.ParseQuery(raw)
	if err != nil {
		return Filter{}, "", false
	}
	f, err := ParseFilter(v)
	if err != nil {
		return Filter{}, "", false
	}
	s := f.String()
	g, err := ParseFilter(canonicalValues(s))
	if err != nil {
		t.Fatalf("%q: String %q does not re-parse: %v", raw, s, err)
	}
	if g != f {
		t.Errorf("%q: String %q re-parses to a different Filter", raw, s)
	}
	if g.String() != s {
		t.Errorf("%q: String %q re-renders as %q", raw, s, g.String())
	}
	return f, s, true
}
