package tickets

import (
	"math"
	"strings"
	"testing"

	"dcnr/internal/backbone"
)

// sameNotice reports whether a and b are equal field by field, comparing
// floats by their bits so that a NaN equals itself.
func sameNotice(a, b Notice) bool {
	return a.TicketID == b.TicketID && a.Vendor == b.Vendor && a.Link == b.Link &&
		a.Circuit == b.Circuit && a.Edge == b.Edge && a.Continent == b.Continent &&
		a.Event == b.Event && a.Maintenance == b.Maintenance &&
		math.Float64bits(a.AtHours) == math.Float64bits(b.AtHours) &&
		math.Float64bits(a.EstimatedHours) == math.Float64bits(b.EstimatedHours)
}

// FuzzParse checks Parse against refParse: both accept the text and
// return the same Notice, or both reject it. An accepted notice reaches a
// fixpoint after one format/parse pass: n2 = Parse(Format(Parse(text)))
// re-formats and re-parses to itself, every field included.
func FuzzParse(f *testing.F) {
	f.Add(sampleFuzzNotice().Format())
	f.Add("Ticket-ID: X\nVendor: v\nLink: l\nEdge: e\nEvent: REPAIR_START\nAt-Hours: 1\n")
	f.Add("")
	f.Add("garbage\n\n::\n")
	f.Add("Ticket-ID: a\nAt-Hours: -1\n")
	f.Add(strings.Repeat("Vendor: v\n", 100))
	f.Add("Ticket-ID: X\r\nVendor: v\r\nLink: l\r\nEdge: e\r\nEvent: REPAIR_COMPLETE\r\nAt-Hours: NaN\r\nEstimated-Hours: -Inf\r\nMaintenance: T")
	f.Add("Ticket-ID: X\nVendor: v\nLink: l\nEdge: e\nEvent: REPAIR_START\nAt-Hours: 1e300\nContinent:  Africa \n\u0085Circuit: c\n")
	f.Fuzz(func(t *testing.T, text string) {
		n, err := Parse(text)
		ref, refErr := refParse(text)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("Parse error %v, refParse error %v", err, refErr)
		}
		if err != nil {
			return
		}
		if !sameNotice(n, ref) {
			t.Fatalf("Parse = %+v, refParse = %+v", n, ref)
		}
		n2, err := Parse(n.Format())
		if err != nil {
			t.Fatalf("re-parse of formatted notice failed: %v\n%s", err, n.Format())
		}
		n3, err := Parse(n2.Format())
		if err != nil {
			t.Fatalf("re-parse of re-formatted notice failed: %v\n%s", err, n2.Format())
		}
		if !sameNotice(n2, n3) {
			t.Fatalf("no fixpoint after one round trip: %+v vs %+v", n2, n3)
		}
	})
}

// FuzzFormat checks AppendFormat and Format against refFormat byte for
// byte on arbitrary field values.
func FuzzFormat(f *testing.F) {
	n := sampleFuzzNotice()
	f.Add(n.TicketID, n.Vendor, n.Link, n.Circuit, n.Edge, int(n.Continent), string(n.Event), n.AtHours, n.EstimatedHours, n.Maintenance)
	f.Add("", "", "", "", "", len(backbone.Continents), "REPAIR_MAYBE", math.NaN(), math.Inf(1), true)
	f.Add("T", "v", "l", "c", "e", -1, string(RepairStart), math.Copysign(0, -1), math.Inf(-1), false)
	f.Add("T\n", "v:", " l ", "c", "e", 3, string(RepairComplete), 1e300, -1e300, false)
	f.Add("T", "v", "l", "c", "e", 5, string(RepairStart), 0.00005, 12345.67895, true)
	f.Fuzz(func(t *testing.T, id, vendor, link, circuit, edge string, continent int, event string, at, est float64, maint bool) {
		n := Notice{
			TicketID: id, Vendor: vendor, Link: link, Circuit: circuit, Edge: edge,
			Continent: backbone.Continent(continent), Event: EventType(event),
			AtHours: at, EstimatedHours: est, Maintenance: maint,
		}
		want := refFormat(n)
		if got := n.Format(); got != want {
			t.Fatalf("Format = %q, refFormat = %q", got, want)
		}
		prefix := []byte("prefix")
		if got := n.AppendFormat(prefix); string(got) != "prefix"+want {
			t.Fatalf("AppendFormat = %q, want prefix + %q", got, want)
		}
	})
}

func sampleFuzzNotice() Notice {
	return Notice{
		TicketID: "TKT-000001", Vendor: "vendor01", Link: "link0001",
		Circuit: "CKT-00001-01", Edge: "edge001", Continent: backbone.Asia,
		Event: RepairStart, AtHours: 10, EstimatedHours: 2,
	}
}
