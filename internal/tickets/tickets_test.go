package tickets

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"strings"
	"testing"
	"testing/quick"

	"dcnr/internal/backbone"
)

func sampleNotice() Notice {
	return Notice{
		TicketID:       "TKT-000001",
		Vendor:         "vendor03",
		Link:           "link0042",
		Circuit:        "CKT-00042-01",
		Edge:           "edge013",
		Continent:      backbone.Europe,
		Event:          RepairStart,
		AtHours:        123.4567,
		EstimatedHours: 4.5,
		Maintenance:    true,
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	n := sampleNotice()
	got, err := Parse(n.Format())
	if err != nil {
		t.Fatal(err)
	}
	if got.TicketID != n.TicketID || got.Vendor != n.Vendor || got.Link != n.Link ||
		got.Edge != n.Edge || got.Continent != n.Continent || got.Event != n.Event ||
		got.Maintenance != n.Maintenance {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if got.AtHours != 123.4567 || got.EstimatedHours != 4.5 {
		t.Errorf("numeric fields: %v, %v", got.AtHours, got.EstimatedHours)
	}
}

func TestCompleteNoticeOmitsEstimate(t *testing.T) {
	n := sampleNotice()
	n.Event = RepairComplete
	if strings.Contains(n.Format(), "Estimated-Hours") {
		t.Error("complete notice carries an estimate")
	}
}

func TestParseToleratesUnknownHeadersAndWhitespace(t *testing.T) {
	text := sampleNotice().Format() + "X-Vendor-Noise: lorem ipsum\n  \n"
	if _, err := Parse(text); err != nil {
		t.Errorf("noise header rejected: %v", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := map[string]string{
		"malformed line":    "Ticket-ID TKT-1\n",
		"unknown continent": strings.Replace(sampleNotice().Format(), "Europe", "Atlantis", 1),
		"unknown event":     strings.Replace(sampleNotice().Format(), "REPAIR_START", "REPAIR_MAYBE", 1),
		"bad hours":         strings.Replace(sampleNotice().Format(), "123.4567", "yesterday", 1),
		"negative hours":    strings.Replace(sampleNotice().Format(), "123.4567", "-5", 1),
		"bad maintenance":   strings.Replace(sampleNotice().Format(), "Maintenance: true", "Maintenance: maybe", 1),
		"missing required":  "Ticket-ID: TKT-1\nVendor: v\n",
	}
	for name, text := range cases {
		if _, err := Parse(text); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestParseMaintenanceSpellings checks Parse's Maintenance values against
// refParse's strconv.ParseBool.
func TestParseMaintenanceSpellings(t *testing.T) {
	base := strings.Replace(sampleNotice().Format(), "Maintenance: true", "Maintenance: ", 1)
	for _, v := range []string{"1", "t", "T", "true", "TRUE", "True", "0", "f", "F", "false", "FALSE", "False", "", "tRUE", "yes", "2", "+1"} {
		got, err := Parse(base + v)
		want, refErr := refParse(base + v)
		if (err == nil) != (refErr == nil) || got.Maintenance != want.Maintenance {
			t.Errorf("Maintenance %q: Parse (%v, %v), refParse (%v, %v)", v, got.Maintenance, err, want.Maintenance, refErr)
		}
	}
}

func buildDowns(t *testing.T) (*backbone.Topology, []backbone.LinkDown) {
	t.Helper()
	cfg := backbone.Config{Edges: 20, Seed: 4}
	topo, err := backbone.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return topo, downs
}

func TestGeneratePairsAndOrders(t *testing.T) {
	topo, downs := buildDowns(t)
	notices := Generate(topo, downs)
	if len(notices) != 2*len(downs) {
		t.Fatalf("notices = %d, want %d", len(notices), 2*len(downs))
	}
	starts, completes := 0, 0
	for i, n := range notices {
		if i > 0 && notices[i].AtHours < notices[i-1].AtHours {
			t.Fatal("notices not time-ordered")
		}
		switch n.Event {
		case RepairStart:
			starts++
			if n.EstimatedHours <= 0 && n.AtHours > 0 {
				// Zero-duration intervals are possible but rare; only
				// flag systematically missing estimates.
				continue
			}
		case RepairComplete:
			completes++
		}
	}
	if starts != completes {
		t.Errorf("starts %d != completes %d", starts, completes)
	}
}

func TestCollectorReconstructsIntervals(t *testing.T) {
	topo, downs := buildDowns(t)
	notices := Generate(topo, downs)
	c := NewCollector()
	for _, n := range notices {
		if err := c.Ingest(n); err != nil {
			t.Fatal(err)
		}
	}
	if c.Open() != 0 {
		t.Errorf("%d repairs left open", c.Open())
	}
	got := c.Downtimes()
	if len(got) != len(downs) {
		t.Fatalf("reconstructed %d intervals, want %d", len(got), len(downs))
	}
	// Total downtime must be preserved exactly.
	var wantSum, gotSum float64
	for _, d := range downs {
		wantSum += d.Duration()
	}
	for _, d := range got {
		gotSum += d.Duration()
	}
	if diff := wantSum - gotSum; diff > 1e-6 || diff < -1e-6 {
		t.Errorf("total downtime %v != %v", gotSum, wantSum)
	}
}

func TestCollectorTextPath(t *testing.T) {
	c := NewCollector()
	start := sampleNotice()
	if err := c.IngestText(start.Format()); err != nil {
		t.Fatal(err)
	}
	complete := start
	complete.Event = RepairComplete
	complete.AtHours = 130
	if err := c.IngestText(complete.Format()); err != nil {
		t.Fatal(err)
	}
	ds := c.Downtimes()
	if len(ds) != 1 || ds[0].Duration() <= 0 {
		t.Fatalf("downtimes = %+v", ds)
	}
	if err := c.IngestText("garbage"); err == nil {
		t.Error("garbage accepted")
	}
}

func TestCollectorConsistencyChecks(t *testing.T) {
	c := NewCollector()
	start := sampleNotice()
	if err := c.Ingest(start); err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(start); err == nil {
		t.Error("duplicate start accepted")
	}
	orphan := sampleNotice()
	orphan.TicketID = "TKT-999999"
	orphan.Event = RepairComplete
	if err := c.Ingest(orphan); err == nil {
		t.Error("orphan complete accepted")
	}
	early := start
	early.Event = RepairComplete
	early.AtHours = start.AtHours - 1
	if err := c.Ingest(early); err == nil {
		t.Error("complete before start accepted")
	}
	bad := start
	bad.Event = "REPAIR_MAYBE"
	if err := c.Ingest(bad); err == nil {
		t.Error("bad event accepted")
	}
}

func TestCollectorClipsOpenRepairs(t *testing.T) {
	c := NewCollector()
	c.WindowHours = 1000
	start := sampleNotice()
	if err := c.Ingest(start); err != nil {
		t.Fatal(err)
	}
	ds := c.Downtimes()
	if len(ds) != 1 {
		t.Fatalf("clipped downtimes = %d, want 1", len(ds))
	}
	if ds[0].End != 1000 {
		t.Errorf("clipped end = %v, want 1000", ds[0].End)
	}
	// Without a window, open repairs are excluded.
	c.WindowHours = 0
	if got := c.Downtimes(); len(got) != 0 {
		t.Errorf("unclipped downtimes = %d, want 0", len(got))
	}
}

func TestWriteAll(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteAll(&buf, []Notice{sampleNotice(), sampleNotice()}); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "Ticket-ID:"); got != 2 {
		t.Errorf("wrote %d notices", got)
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(at, est float64, maint bool, which uint8) bool {
		n := sampleNotice()
		if at < 0 {
			at = -at
		}
		if at > 1e6 {
			at = 1e6
		}
		n.AtHours = at
		n.EstimatedHours = est
		n.Maintenance = maint
		n.Continent = backbone.Continents[int(which)%len(backbone.Continents)]
		got, err := Parse(n.Format())
		if err != nil {
			return false
		}
		return got.Continent == n.Continent && got.Maintenance == n.Maintenance
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestParseLineBound pins the 64 KiB line bound at its edge: a line,
// counted without its '\n', must be shorter than bufio.MaxScanTokenSize,
// whatever ends it. Parse and refParse agree on every cell, and the cells
// on both sides of the bound are exercised.
func TestParseLineBound(t *testing.T) {
	head := "Ticket-ID: TKT-1\nVendor: v\nLink: l\nEdge: e\nEvent: REPAIR_START\nAt-Hours: 1\n"
	endings := map[string]string{"LF": "\n", "CRLF": "\r\n", "EOF": ""}
	for name, end := range endings {
		for size := bufio.MaxScanTokenSize - 3; size <= bufio.MaxScanTokenSize+1; size++ {
			// An unknown header padded to size bytes, counting any '\r'.
			line := "X-Pad: " + strings.Repeat("p", size-len("X-Pad: ")-len(strings.TrimSuffix(end, "\n")))
			text := head + line + end
			_, err := Parse(text)
			_, refErr := refParse(text)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s, line %d bytes: Parse error %v, refParse error %v", name, size, err, refErr)
			}
			wantOK := size < bufio.MaxScanTokenSize
			if (err == nil) != wantOK {
				t.Errorf("%s, line %d bytes: error %v, want accepted=%v", name, size, err, wantOK)
			}
			if err != nil && !errors.Is(err, bufio.ErrTooLong) {
				t.Errorf("%s, line %d bytes: error %v does not wrap bufio.ErrTooLong", name, size, err)
			}
		}
	}
}

func TestParseAllocs(t *testing.T) {
	text := sampleNotice().Format()
	if got := testing.AllocsPerRun(100, func() {
		if _, err := Parse(text); err != nil {
			t.Fatal(err)
		}
	}); got != 0 {
		t.Errorf("Parse: %v allocs, want 0", got)
	}
}

func TestAppendFormatAllocs(t *testing.T) {
	n := sampleNotice()
	buf := make([]byte, 0, 1024)
	if got := testing.AllocsPerRun(100, func() { buf = n.AppendFormat(buf[:0]) }); got != 0 {
		t.Errorf("AppendFormat: %v allocs, want 0", got)
	}
}

// TestWriteAllAllocs checks that WriteAll's allocations do not grow with
// the number of notices: it formats into one reused buffer.
func TestWriteAllAllocs(t *testing.T) {
	allocs := func(count int) float64 {
		notices := make([]Notice, count)
		for i := range notices {
			notices[i] = sampleNotice()
		}
		return testing.AllocsPerRun(10, func() {
			if err := WriteAll(io.Discard, notices); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(1000)
	if many > one {
		t.Errorf("WriteAll: %v allocs for 1000 notices, %v for 1; want a constant", many, one)
	}
}

// formatSink keeps BenchmarkFormat's result live.
var formatSink string

func BenchmarkFormat(b *testing.B) {
	n := sampleNotice()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		formatSink = n.Format()
	}
}

func BenchmarkParse(b *testing.B) {
	text := sampleNotice().Format()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Parse(text); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWriteAll(b *testing.B) {
	notices := make([]Notice, 1000)
	for i := range notices {
		notices[i] = sampleNotice()
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := WriteAll(io.Discard, notices); err != nil {
			b.Fatal(err)
		}
	}
}
