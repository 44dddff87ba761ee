package main

import (
	"os"
	"path/filepath"
	"testing"

	"dcnr"
)

func datasetFile(t *testing.T) string {
	t.Helper()
	store := dcnr.NewSEVStore()
	reports := []dcnr.SEVReport{
		{Severity: dcnr.Sev3, Device: "rsw001.cl001.dc1.ra", RootCauses: []dcnr.RootCause{dcnr.Hardware}, Start: 1, Duration: 1, Resolution: 2, Year: 2016, Title: "a"},
		{Severity: dcnr.Sev1, Device: "core001.dc1.ra", RootCauses: []dcnr.RootCause{dcnr.Configuration}, Start: 2, Duration: 1, Resolution: 2, Year: 2017, Title: "b"},
		{Severity: dcnr.Sev2, Device: "csw001.cl001.dc1.ra", Start: 3, Duration: 1, Resolution: 2, Year: 2017, Title: "c"},
	}
	for _, r := range reports {
		if _, err := store.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	path := filepath.Join(t.TempDir(), "sevs.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := store.WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestQueriesAndGroupings(t *testing.T) {
	path := datasetFile(t)
	cases := []struct {
		name string
		call func() error
	}{
		{"list", func() error { return run(path, "", "", 10) }},
		{"year filter", func() error { return run(path, "year=2017", "", 10) }},
		{"type filter", func() error { return run(path, "device=RSW", "", 10) }},
		{"severity filter", func() error { return run(path, "severity=1", "", 10) }},
		{"cause filter", func() error { return run(path, "cause=Configuration", "", 10) }},
		{"design filter", func() error { return run(path, "design=cluster", "", 10) }},
		{"window filter", func() error { return run(path, "since=1.5&until=3", "", 10) }},
		{"combined filter", func() error { return run(path, "year=2017&device=core&severity=SEV1", "", 10) }},
		{"group year", func() error { return run(path, "", "year", 10) }},
		{"group device", func() error { return run(path, "", "device", 10) }},
		{"group severity", func() error { return run(path, "", "severity", 10) }},
		{"group cause", func() error { return run(path, "", "cause", 10) }},
		{"truncated list", func() error { return run(path, "", "", 1) }},
	}
	for _, c := range cases {
		if err := c.call(); err != nil {
			t.Errorf("%s: %v", c.name, err)
		}
	}
}

func TestQueryErrors(t *testing.T) {
	path := datasetFile(t)
	if err := run("missing.json", "", "", 10); err == nil {
		t.Error("missing file accepted")
	}
	for _, where := range []string{
		"device=XYZ",
		// Spellings the old device-name prefix match accepted; dcnrd
		// never did.
		"device=rsw.x", "device=RSW001", "device=core-foo",
		"severity=9", "cause=Gremlins",
		"type=RSW", "year=2013&year=2014", "since=NaN", "%zz",
	} {
		if err := run(path, where, "", 10); err == nil {
			t.Errorf("-where %q accepted", where)
		}
	}
	for _, group := range []string{"vibes", "type"} {
		if err := run(path, "", group, 10); err == nil {
			t.Errorf("-group %q accepted", group)
		}
	}
}
