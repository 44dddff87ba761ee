package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"testing"

	"dcnr/internal/backbone"
	"dcnr/internal/tickets"
)

// interDigests pins the SHA-256 of each per-edge accessor's output for the
// default backbone at seed 20181031, rendered as sorted "key %.17g" lines.
// The edge-outage sweep feeds all of them, so a change to how outages are
// computed or cached that moves a single bit of any value fails here.
// ByContinent sums its outage hours in topology order, so its MTTR bits are
// the same on every call.
var interDigests = map[string]string{
	"EdgeMTBF":            "35c52bdc8367f617aa1dbb1c17468a3d86b1d6a577f48d6f286e3288b7007623",
	"EdgeMTTR":            "f15f9fb9483d02b848229096df919ce75bf2515c624764ee4b215bd3d4af26af",
	"EdgeAvailability":    "b471b366c15fae22e66a0aa0174085ed67057e4334f0538e8b66744fea269437",
	"EdgeFailureRateMTBF": "20a4e2248154444b9bfd8325dc1ead505eb10ea5e23922972c7b6dc0f1fd1649",
	"ByContinent":         "014d2238f92be313efaf10254caf5b4b13b2923df61fd21464c2b234109c80e2",
	"ConditionalRisk":     "ca95237dc9806ec21c839e996085e50c925a847e9c8dfa7a7b33a6dc32f9ec81",
}

func TestInterAnalysisDigests(t *testing.T) {
	cfg := backbone.DefaultConfig()
	cfg.Seed = 20181031
	topo, err := backbone.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	downs, err := topo.Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	coll := tickets.NewCollector()
	coll.WindowHours = cfg.WindowHours()
	for _, n := range tickets.Generate(topo, downs) {
		if err := coll.Ingest(n); err != nil {
			t.Fatal(err)
		}
	}
	a, err := NewInterAnalysis(topo, coll.Downtimes(), cfg.WindowHours())
	if err != nil {
		t.Fatal(err)
	}

	byCont := make(map[string]string)
	for c, s := range a.ByContinent() {
		byCont[c.String()] = fmt.Sprintf("%.17g %.17g %.17g", s.Share, s.MTBF, s.MTTR)
	}
	got := map[string]string{
		"EdgeMTBF":            digestLines(a.EdgeMTBF()),
		"EdgeMTTR":            digestLines(a.EdgeMTTR()),
		"EdgeAvailability":    digestLines(a.EdgeAvailability()),
		"EdgeFailureRateMTBF": digestLines(a.EdgeFailureRateMTBF()),
		"ByContinent":         digestLines(byCont),
		"ConditionalRisk":     digestLines(a.ConditionalRisk()),
	}
	for name, want := range interDigests {
		if got[name] != want {
			t.Errorf("%s: sha256 = %s, want %s", name, got[name], want)
		}
	}
}

// digestLines hashes a map as its sorted "key value" lines, formatting
// float values with %.17g so every bit of every value counts.
func digestLines[V any](m map[string]V) string {
	lines := make([]string, 0, len(m))
	for k, v := range m {
		if f, ok := any(v).(float64); ok {
			lines = append(lines, fmt.Sprintf("%s %.17g", k, f))
		} else {
			lines = append(lines, fmt.Sprintf("%s %v", k, v))
		}
	}
	sort.Strings(lines)
	sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
	return hex.EncodeToString(sum[:])
}
