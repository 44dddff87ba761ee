package sev

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dcnr/internal/obs"
)

// Sharded partitions SEV reports across goroutine-owned stores: each
// shard is a private *Store driven by a single owner goroutine that
// executes operations sent over its channel, so no query or ingest ever
// contends on a store-wide lock. Queries fan out to every shard in
// parallel and merge the partial aggregates; ingest assigns globally
// unique IDs up front and distributes the batch round-robin.
//
// The dataset generation (Generation) is bumped once per successful
// ingest batch — the serve layer keys its result cache on it, so a bump
// invalidates every cached aggregation at once. The generation only
// counts batches, so two stores holding different data can share one;
// Epoch tells them apart.
//
// A Sharded must be created with NewSharded and released with Close;
// operations after Close panic.
type Sharded struct {
	shards []*shard
	wg     sync.WaitGroup
	gen    atomic.Uint64
	epoch  atomic.Uint64

	// ingestMu serializes ingest only — queries never touch it. ids holds
	// every assigned or explicit report ID for global duplicate rejection;
	// digest is the running content hash behind epoch.
	ingestMu sync.Mutex
	ids      map[int]bool
	nextID   int
	digest   hash.Hash64
}

// shard is one goroutine-owned partition. Only the owner goroutine
// touches store once the shard is running.
type shard struct {
	store *Store
	ops   chan func(*Store)
}

// NewSharded returns a sharded store with n partitions (n < 1 is treated
// as 1), each owned by its own goroutine.
func NewSharded(n int) *Sharded {
	if n < 1 {
		n = 1
	}
	s := &Sharded{ids: make(map[int]bool), nextID: 1, digest: fnv.New64a()}
	s.shards = make([]*shard, n)
	for i := range s.shards {
		sh := &shard{store: NewStore(), ops: make(chan func(*Store), 16)}
		s.shards[i] = sh
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for op := range sh.ops {
				op(sh.store)
			}
		}()
	}
	return s
}

// Close stops every shard goroutine and waits for them to drain. No
// operation may be issued after (or concurrently with) Close.
func (s *Sharded) Close() {
	for _, sh := range s.shards {
		close(sh.ops)
	}
	s.wg.Wait()
}

// Shards returns the partition count.
func (s *Sharded) Shards() int { return len(s.shards) }

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
	s.fanOut(func(st *Store) int { st.Instrument(reg); return 0 })
}

// fanOutInto runs fn against every shard's store in parallel (each on
// its owner goroutine), writing the per-shard results into out in shard
// order.
func fanOutInto[T any](s *Sharded, out []T, fn func(*Store) T) {
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		wg.Add(1)
		i, sh := i, sh
		sh.ops <- func(st *Store) {
			defer wg.Done()
			out[i] = fn(st)
		}
	}
	wg.Wait()
}

func (s *Sharded) fanOut(fn func(*Store) int) []int {
	out := make([]int, len(s.shards))
	fanOutInto(s, out, fn)
	return out
}

// Len returns the total number of stored reports across all shards.
func (s *Sharded) Len() int {
	n := 0
	for _, c := range s.fanOut(func(st *Store) int { return st.Len() }) {
		n += c
	}
	return n
}

// Get returns the report with the given ID from whichever shard holds it.
func (s *Sharded) Get(id int) (Report, error) {
	type hit struct {
		r  Report
		ok bool
	}
	out := make([]hit, len(s.shards))
	fanOutInto(s, out, func(st *Store) hit {
		r, err := st.Get(id)
		return hit{r, err == nil}
	})
	for _, h := range out {
		if h.ok {
			return h.r, nil
		}
	}
	return Report{}, fmt.Errorf("sev: no report with ID %d", id)
}

// AddAll validates the batch, assigns globally unique IDs (a report with
// ID 0 gets a fresh one; explicit IDs are preserved and rejected on
// collision), distributes the reports round-robin across the shards, and
// bumps the dataset generation. On error nothing is ingested. It returns
// the assigned IDs in input order.
func (s *Sharded) AddAll(batch []Report) ([]int, error) {
	for i := range batch {
		if err := batch[i].Validate(); err != nil {
			return nil, fmt.Errorf("sev: report %d invalid: %w", batch[i].ID, err)
		}
	}
	s.ingestMu.Lock()
	defer s.ingestMu.Unlock()
	seen := make(map[int]bool, len(batch))
	for i := range batch {
		if id := batch[i].ID; id != 0 {
			if s.ids[id] || seen[id] {
				return nil, fmt.Errorf("sev: duplicate report ID %d in batch", id)
			}
			seen[id] = true
		}
	}
	ids := make([]int, len(batch))
	chunks := make([][]Report, len(s.shards))
	for i := range batch {
		r := batch[i]
		if r.ID == 0 {
			for seen[s.nextID] || s.ids[s.nextID] {
				s.nextID++
			}
			r.ID = s.nextID
			s.nextID++
		} else if r.ID >= s.nextID {
			s.nextID = r.ID + 1
		}
		ids[i] = r.ID
		s.ids[r.ID] = true
		w := i % len(chunks)
		chunks[w] = append(chunks[w], r)
	}
	errs := make([]error, len(s.shards))
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if len(chunks[i]) == 0 {
			continue
		}
		wg.Add(1)
		i, sh := i, sh
		sh.ops <- func(st *Store) {
			defer wg.Done()
			_, errs[i] = st.AddAll(chunks[i])
		}
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Unreachable: validation and global ID dedup already passed.
			return nil, err
		}
	}
	var key []byte
	for i := range batch {
		key = appendReportKey(key[:0], &batch[i], ids[i])
		_, _ = s.digest.Write(key) // hash.Hash writes never fail
	}
	s.epoch.Store(s.digest.Sum64())
	s.gen.Add(1)
	return ids, nil
}

// appendReportKey appends a length-prefixed binary encoding of every
// field of r, with id standing in for r.ID — the bytes Epoch hashes.
func appendReportKey(b []byte, r *Report, id int) []byte {
	u := binary.LittleEndian.AppendUint64
	str := func(b []byte, s string) []byte {
		return append(u(b, uint64(len(s))), s...)
	}
	b = u(b, uint64(id))
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

// ReadJSON ingests the reports decoded from r as one batch, preserving
// explicit IDs with the same duplicate-rejection semantics as
// Store.ReadJSON. Unlike Store.ReadJSON it appends to the current
// dataset rather than replacing it; call it on a fresh Sharded for a
// whole-dataset load.
func (s *Sharded) ReadJSON(r io.Reader) error {
	var reports []Report
	if err := json.NewDecoder(r).Decode(&reports); err != nil {
		return fmt.Errorf("sev: decoding dataset: %w", err)
	}
	sort.Slice(reports, func(i, j int) bool { return reports[i].ID < reports[j].ID })
	if _, err := s.AddAll(reports); err != nil {
		return err
	}
	return nil
}

// Query starts a fan-out query over every shard: each aggregation runs
// the narrowed query on all shard goroutines in parallel and merges the
// partial results.
func (s *Sharded) Query() Query { return Query{shards: s} }

// collect evaluates one aggregation for q: agg runs directly on a plain
// store, or on every shard's owner goroutine in parallel with merge
// combining the per-shard results.
func collect[T any](q Query, agg func(Query) T, merge func([]T) T) T {
	if q.shards == nil {
		return agg(q)
	}
	parts := make([]T, len(q.shards.shards))
	fanOutInto(q.shards, parts, func(st *Store) T { return agg(Query{store: st, f: q.f}) })
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
