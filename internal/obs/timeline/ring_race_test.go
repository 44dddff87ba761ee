package timeline

import (
	"io"
	"sync"
	"testing"

	"dcnr/internal/obs"
)

// TestRingWraparoundConcurrentRead drives a single-writer lane through
// many staging-buffer wraparounds while concurrent readers assemble
// Samples, serialize JSONL, and answer windowed queries. Run under -race
// this pins the publication contract: readers only ever touch flushed
// immutable blocks, never the staging ring the writer is overwriting.
func TestRingWraparoundConcurrentRead(t *testing.T) {
	tl := New(1)
	col := tl.Column("series")
	lane := tl.Lane("sim")

	const total = obs.StageBatch*8 + obs.StageBatch/2 // several wraps plus a partial tail
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				prev := -1.0
				for _, s := range tl.Samples() {
					if s.T < prev {
						t.Errorf("samples out of order: %v after %v", s.T, prev)
						return
					}
					prev = s.T
				}
				if err := tl.WriteJSONL(io.Discard); err != nil {
					t.Errorf("WriteJSONL: %v", err)
					return
				}
				tl.Window(0, float64(total), "series")
			}
		}()
	}

	for i := 0; i < total; i++ {
		lane.Record(col, float64(i), float64(i%7))
	}
	lane.Flush()
	close(stop)
	wg.Wait()

	if got := tl.Len(); got != total {
		t.Fatalf("Len = %d, want %d", got, total)
	}
	// A reader after the final flush sees every sample, in order.
	ss := tl.Samples()
	for i, s := range ss {
		if s.T != float64(i) {
			t.Fatalf("sample %d has T=%v", i, s.T)
		}
	}
}
