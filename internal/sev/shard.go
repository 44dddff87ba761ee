package sev

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
)

// Sharded partitions SEV reports across n plain Stores, routing each
// report by its ID to shard ((id % n) + n) % n. Each shard's own RWMutex
// is the only thing guarding it: a query reads every shard in parallel
// and merges the partial aggregates, and concurrent queries share a shard
// under its read lock. Ingest is serialized by ingestMu, so the shards'
// ID indexes together are the global duplicate set.
//
// The dataset generation (Generation) is bumped once per successful
// ingest batch — the serve layer keys its result cache on it, so a bump
// invalidates every cached aggregation at once. The generation only
// counts batches, so two stores holding different data can share one;
// Epoch tells them apart.
//
// A Sharded must be created with NewSharded.
type Sharded struct {
	shards []*Store
	gen    atomic.Uint64
	epoch  atomic.Uint64

	// ingestMu serializes ingest only — queries never touch it. nextID is
	// the next fresh report ID; digest is the running content hash behind
	// epoch.
	ingestMu sync.Mutex
	nextID   int
	digest   hash.Hash64
}

// NewSharded returns a sharded store with n partitions (n < 1 is treated
// as 1).
func NewSharded(n int) *Sharded {
	s := &Sharded{shards: make([]*Store, max(n, 1)), nextID: 1, digest: fnv.New64a()}
	for i := range s.shards {
		s.shards[i] = NewStore()
	}
	return s
}

// Shards returns the partition count.
func (s *Sharded) Shards() int { return len(s.shards) }

// shardOf returns the index of the shard that holds, or will hold, the
// report with the given ID; negative IDs route like any other.
func (s *Sharded) shardOf(id int) int {
	n := len(s.shards)
	return ((id % n) + n) % n
}

// Generation returns the dataset generation: bumped once per successful
// AddAll or ReadJSON batch.
func (s *Sharded) Generation() uint64 { return s.gen.Load() }

// Epoch returns the dataset epoch: a content hash chained over every
// ingested report, with its assigned ID, in ingest order. Stores loaded
// with the same reports in the same batches agree on it; stores holding
// different data differ (up to 64-bit hash collisions) even at equal
// generations — across daemons and across restarts. AddAll publishes the
// epoch before bumping the generation, so a reader that sees generation
// N sees at least batch N's epoch.
func (s *Sharded) Epoch() uint64 { return s.epoch.Load() }

// Instrument attaches one shared metrics registry to every shard's query
// engine; counters are atomic, so the shards aggregate into the same
// series. reg may be nil.
func (s *Sharded) Instrument(reg *obs.Registry) {
	for _, st := range s.shards {
		st.Instrument(reg)
	}
}

// fanOut runs fn on every shard in parallel — shard 0 on the caller's
// goroutine, each other shard on a goroutine of its own — and returns
// once all have finished.
func (s *Sharded) fanOut(fn func(i int, st *Store)) {
	var wg sync.WaitGroup
	for i, st := range s.shards[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(i+1, st)
		}()
	}
	fn(0, s.shards[0])
	wg.Wait()
}

// Len returns the total number of stored reports across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, st := range s.shards {
		n += st.Len()
	}
	return n
}

// Get returns the report with the given ID from the shard that holds it.
func (s *Sharded) Get(id int) (Report, error) { return s.shards[s.shardOf(id)].Get(id) }

// AddAll validates the batch, assigns globally unique IDs (a report with
// ID 0 gets a fresh one; explicit IDs are preserved and rejected on
// collision), routes each report to its ID's shard, and bumps the
// dataset generation. On error nothing is ingested. It returns the
// assigned IDs in input order.
func (s *Sharded) AddAll(batch []Report) ([]int, error) {
	if err := validateBatch(batch); err != nil {
		return nil, err
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	taken := func(id int) bool { return s.shards[s.shardOf(id)].has(id) }
	numbered, ids, err := numberBatch(nil, batch, &s.nextID, taken)
	if err != nil {
		return nil, err
	}
	chunks := make([][]Report, len(s.shards))
	for _, r := range numbered {
		i := s.shardOf(r.ID)
		chunks[i] = append(chunks[i], r)
	}
	s.fanOut(func(i int, st *Store) { st.appendNumbered(chunks[i]) })
	var key []byte
	for i := range numbered {
		key = appendReportKey(key[:0], &numbered[i])
		_, _ = s.digest.Write(key) // hash.Hash writes never fail
	}
	s.epoch.Store(s.digest.Sum64())
	s.gen.Add(1)
	return ids, nil
}

// appendReportKey appends a length-prefixed binary encoding of every
// field of r — the bytes Epoch hashes.
func appendReportKey(b []byte, r *Report) []byte {
	u := binary.LittleEndian.AppendUint64
	str := func(b []byte, s string) []byte {
		return append(u(b, uint64(len(s))), s...)
	}
	b = u(b, uint64(r.ID))
	b = u(b, uint64(r.Severity))
	b = str(b, r.Device)
	b = u(b, uint64(len(r.RootCauses)))
	for _, c := range r.RootCauses {
		b = u(b, uint64(c))
	}
	b = u(b, math.Float64bits(r.Start))
	b = u(b, math.Float64bits(r.Duration))
	b = u(b, math.Float64bits(r.Resolution))
	b = u(b, uint64(r.Year))
	b = str(b, r.Title)
	b = str(b, r.Impact)
	b = u(b, uint64(len(r.ServicesAffected)))
	for _, svc := range r.ServicesAffected {
		b = str(b, svc)
	}
	if r.Reviewed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	return str(b, r.Reviewer)
}

// ReadJSON ingests the reports decoded from r as one batch, in ascending
// ID order, with the same ID rules as Store.ReadJSON. Unlike
// Store.ReadJSON it appends to the current dataset rather than replacing
// it; call it on a fresh Sharded for a whole-dataset load.
func (s *Sharded) ReadJSON(r io.Reader) error {
	reports, err := decodeDataset(r)
	if err != nil {
		return err
	}
	_, err = s.AddAll(reports)
	return err
}

// Query starts a fan-out query over every shard: each aggregation runs
// the narrowed query on all shards in parallel and merges the partial
// results.
func (s *Sharded) Query() Query { return Query{shards: s} }

// collect evaluates one aggregation for q: agg runs directly on a plain
// store, or on every shard in parallel with merge combining the
// per-shard results.
func collect[T any](q Query, agg func(Query) T, merge func([]T) T) T {
	if q.shards == nil {
		return agg(q)
	}
	parts := make([]T, len(q.shards.shards))
	q.shards.fanOut(func(i int, st *Store) { parts[i] = agg(Query{store: st, f: q.f}) })
	return merge(parts)
}

func concat[T any](parts [][]T) []T {
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

func mergeCounts[K comparable](parts []map[K]int) map[K]int {
	out := make(map[K]int)
	for _, p := range parts {
		for k, v := range p {
			out[k] += v
		}
	}
	return out
}

func mergeNested[K1, K2 comparable](parts []map[K1]map[K2]int) map[K1]map[K2]int {
	out := make(map[K1]map[K2]int)
	for _, p := range parts {
		for k1, row := range p {
			dst := nestedRow(out, k1)
			for k2, v := range row {
				dst[k2] += v
			}
		}
	}
	return out
}

func mergeSamples[K comparable](parts []map[K][]float64) map[K][]float64 {
	out := make(map[K][]float64)
	for _, p := range parts {
		for k, vs := range p {
			out[k] = append(out[k], vs...)
		}
	}
	return out
}
