package obs

import (
	"io"
	"sync"
	"testing"
)

// TestSpanRingWraparoundUnderFork pins flushed-block immutability under the
// dcsim streaming pattern: one writer drives a ring through several
// staging-buffer wraparounds (auto-flush at StageBatch) while readers
// repeatedly serialize the same tracer and a forked tracer's writer records
// concurrently. A mid-run Events snapshot must be a stable prefix of the
// final trace — if Flush published the staging array instead of a copy,
// the writer's wraparound would rewrite records the readers already hold
// (and the race detector would see the overlap).
func TestSpanRingWraparoundUnderFork(t *testing.T) {
	tr := NewTracer()
	ring := tr.Ring(WallPID, 1, "test", "hot", "v").SetNames("even", "odd")

	const total = 3*StageBatch + 17 // several wraparounds plus a partial batch

	var wg sync.WaitGroup
	done := make(chan struct{})

	// Writer: wraps the staging buffer repeatedly; every record's arg
	// equals its timestamp, so any torn or rewritten record is detectable.
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < total; i++ {
			ring.Record(int32(i%2), float64(i), 1, float64(i), 0, 0)
		}
		ring.Flush()
	}()

	// Fork writer: records on a forked tracer's own ring concurrently —
	// forks share only the wall-clock origin, never ring state.
	fork := tr.Fork()
	fring := fork.Ring(WallPID, 2, "test", "forked", "v")
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < StageBatch+5; i++ {
			fring.Record(-1, float64(i), 1, float64(i), 0, 0)
		}
		fring.Flush()
	}()

	// Readers: hammer the serialization paths while both writers run, and
	// keep one mid-run snapshot for the immutability check.
	var snapshot []Event
	for loop := true; loop; {
		select {
		case <-done:
			loop = false
		default:
		}
		evs := tr.Events()
		for _, e := range evs {
			if e.Args["v"] != e.TS {
				t.Fatalf("record torn or rewritten under reader: ts=%v v=%v", e.TS, e.Args["v"])
			}
		}
		if snapshot == nil && len(evs) >= StageBatch {
			snapshot = evs
		}
		if err := tr.WriteJSON(io.Discard); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		_ = tr.Len()
	}
	wg.Wait()

	if snapshot == nil {
		// The writer finished before a full batch was visible; the final
		// trace still serves as the (trivial) snapshot.
		snapshot = tr.Events()
	}
	final := tr.Events()
	if len(final) != total {
		t.Fatalf("final trace has %d records, want %d", len(final), total)
	}
	for i := range snapshot {
		if snapshot[i].TS != final[i].TS || snapshot[i].Name != final[i].Name ||
			snapshot[i].Args["v"] != final[i].Args["v"] {
			t.Fatalf("flushed block mutated after publication: snapshot[%d]=%+v final[%d]=%+v",
				i, snapshot[i], i, final[i])
		}
	}
	// Per-record names resolve through the table across wraparounds.
	if final[0].Name != "even" || final[1].Name != "odd" {
		t.Errorf("name table lost across flushes: %q, %q", final[0].Name, final[1].Name)
	}
	// The fork stayed independent.
	if fork.Len() != StageBatch+5 {
		t.Errorf("fork recorded %d spans, want %d", fork.Len(), StageBatch+5)
	}
	if tr.Len() != total {
		t.Errorf("fork leaked into parent: parent has %d spans, want %d", tr.Len(), total)
	}
}
