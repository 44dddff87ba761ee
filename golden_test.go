package dcnr_test

// Cross-commit byte gate: the SHA-256 digests below pin the exact bytes of
// every deterministic output the project promises to keep stable —
// sevs.json, tickets.txt, sweep_report.json, and the journal and timeline
// JSONL streams. The determinism tests elsewhere compare two runs of the
// same build; these digests compare against every earlier build, so a
// refactor of an encoder or a staging buffer that shifts a single byte
// fails here. Update a digest only for an intended output change, and say
// why in the change description.

import (
	"crypto/sha256"
	"encoding/hex"
	"hash"
	"io"
	"testing"

	"dcnr"
	"dcnr/internal/tickets"
)

// goldenDigests maps each pinned output to the hex SHA-256 of its bytes.
var goldenDigests = map[string]string{
	"intra/sevs.json":      "843b3c3404312bbd4e030a05d423c452bf897806ca5857ae60d7e73c2c354a18",
	"intra/journal.jsonl":  "b1c839e71183ebe2da27169f4440959a58d3680292088a6e6d7e6059e1432887",
	"intra/timeline.jsonl": "9fb01942821b741490366bfc303a11afec01fb753516d6b73f80a3ed186c565b",
	"backbone/tickets.txt": "183f9a64b6ec001d047a35403e25145ce80293942994cf6995f72ad41991bc79",
	"sweep/report.json":    "ffc78044d6c208cc9bc11965dd1d888200948253683d506419873ab41e3c0b36",
	"sweep/journal.jsonl":  "69d4f8931c8d9cc75aed68bbafe970a19c57bd4ec6aab22c2c6b9488fa7ae384",
	"sweep/timeline.jsonl": "0d6f33b8857904fd8b62add94c42a958851d06a0a48ce0e0f8c9067229f01fd0",
}

// digest is a streaming SHA-256 sink that also counts the bytes it saw.
type digest struct {
	h hash.Hash
	n int
}

func newDigest() *digest { return &digest{h: sha256.New()} }

func (d *digest) Write(p []byte) (int, error) {
	d.n += len(p)
	return d.h.Write(p)
}

func (d *digest) check(t *testing.T, name string) {
	t.Helper()
	if d.n == 0 {
		t.Fatalf("%s: empty output", name)
	}
	if got := hex.EncodeToString(d.h.Sum(nil)); got != goldenDigests[name] {
		t.Errorf("%s: sha256 = %s, want %s (%d bytes)", name, got, goldenDigests[name], d.n)
	}
}

func checkDigest(t *testing.T, name string, write func(io.Writer) error) {
	t.Helper()
	d := newDigest()
	if err := write(d); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	d.check(t, name)
}

func TestGoldenIntraDC(t *testing.T) {
	jnl := dcnr.NewJournal()
	tl := dcnr.NewTimeline(24)
	cfg := dcnr.IntraConfig{Seed: 7, FromYear: 2016, ToYear: 2017}
	cfg.Observe.Journal = jnl
	cfg.Observe.Timeline = tl
	res, err := dcnr.SimulateIntraDC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "intra/sevs.json", res.Store.WriteJSON)
	checkDigest(t, "intra/journal.jsonl", jnl.WriteJSONL)
	checkDigest(t, "intra/timeline.jsonl", tl.WriteJSONL)
}

func TestGoldenBackbone(t *testing.T) {
	cfg := dcnr.DefaultBackboneConfig()
	cfg.Seed = 7
	res, err := dcnr.SimulateBackbone(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "backbone/tickets.txt", func(w io.Writer) error {
		return tickets.WriteAll(w, res.Notices)
	})
}

func TestGoldenSweep(t *testing.T) {
	jnl, tl := newDigest(), newDigest()
	res, err := dcnr.Sweep(dcnr.SweepConfig{
		Seeds:     []uint64{3, 4},
		Workers:   2,
		Scenarios: []dcnr.SweepScenario{{Name: "baseline", FromYear: 2017, ToYear: 2017}},
		Journal:   jnl,
		Timeline:  tl,
	})
	if err != nil {
		t.Fatal(err)
	}
	checkDigest(t, "sweep/report.json", res.WriteReport)
	jnl.check(t, "sweep/journal.jsonl")
	tl.check(t, "sweep/timeline.jsonl")
}
