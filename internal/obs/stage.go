package obs

import "sync"

// StageBatch is the staging-buffer size of every Stage: one publish (one
// lock acquisition and one block allocation) per this many records.
const StageBatch = 256

// Stage is the single-writer staging buffer behind every record stream of
// the obs stack — trace spans (SpanRing), journal records, and timeline
// samples. The writer Adds records into a fixed array; Flush copies the
// staged records into a fresh immutable block and publishes it. Readers
// (Blocks, Len) see only published blocks, so a mid-run reader observes a
// consistent prefix of the stream while the writer keeps recording.
//
// Publishing appends a freshly-copied block instead of growing one flat
// slice, so it never re-copies earlier records: a flat append spent more
// memory bandwidth on growslice copies than the simulation spent producing
// the records.
//
// A Stage is SINGLE-WRITER: exactly one goroutine may call Add / Flush at
// a time (callers that share a stream across goroutines serialize on their
// own mutex). Blocks and Len are safe from any goroutine. T should be
// pointer-free so a full buffer is one GC-free block.
//
// Stage is meant to be embedded: the embedding type adds its own hook —
// name tables, ID assignment, subscriber fan-out — and its own nil-safe
// entry points, calling its Flush when Add reports a full buffer.
type Stage[T any] struct {
	buf [StageBatch]T
	n   int

	mu      sync.Mutex
	flushed [][]T
	total   int
}

// Add stages v and reports whether the buffer is now full, in which case
// the writer must Flush before the next Add.
func (s *Stage[T]) Add(v T) bool {
	s.buf[s.n] = v
	s.n++
	return s.n == StageBatch
}

// Flush publishes the staged records as one immutable block and returns
// it, or nil when nothing was staged. Only the writer may call it.
func (s *Stage[T]) Flush() []T {
	if s.n == 0 {
		return nil
	}
	blk := make([]T, s.n)
	copy(blk, s.buf[:s.n])
	s.mu.Lock()
	s.flushed = append(s.flushed, blk)
	s.total += s.n
	s.mu.Unlock()
	s.n = 0
	return blk
}

// Blocks returns the published blocks in publish order. The blocks
// themselves are immutable, so only the block list is copied.
func (s *Stage[T]) Blocks() [][]T {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([][]T(nil), s.flushed...)
}

// Len returns the number of published records.
func (s *Stage[T]) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}
