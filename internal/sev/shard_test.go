package sev

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"dcnr/internal/topology"
)

// shardReports builds n valid reports spread across years, devices,
// severities, and causes, with ID 0 (store-assigned).
func shardReports(n, base int) []Report {
	devices := []string{
		"rsw001.cl001.dc1.ra", "csw001.cl001.dc1.ra", "csa001.dc1.ra",
		"esw001.cl001.dc1.ra", "ssw001.cl001.dc1.ra",
	}
	out := make([]Report, n)
	for i := range out {
		k := base + i
		out[i] = Report{
			Severity:   Severity(1 + k%3),
			Device:     devices[k%len(devices)],
			Start:      float64((k * 37) % (n * 5)),
			Duration:   1,
			Resolution: float64(2 + k%7),
			Year:       2011 + k%7,
			RootCauses: []RootCause{RootCause(k % numRootCauses)},
		}
	}
	return out
}

// TestAddAllMatchesAdd pins the batched ingest path against the
// single-report path: same IDs, same report order, same index behavior
// (window queries exercise the merged start-time index).
func TestAddAllMatchesAdd(t *testing.T) {
	reports := shardReports(200, 0)
	one := NewStore()
	for _, r := range reports {
		if _, err := one.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	batch := NewStore()
	// Split across several batches so the byStart merge path runs with a
	// non-empty existing run.
	for i := 0; i < len(reports); i += 64 {
		end := min(i+64, len(reports))
		if _, err := batch.AddAll(reports[i:end]); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := fmt.Sprint(batch.All()), fmt.Sprint(one.All()); got != want {
		t.Fatal("AddAll and Add produced different stores")
	}
	for _, win := range [][2]float64{{0, 100}, {37, 612}, {500, 1000}} {
		got := batch.Query().Since(win[0]).Until(win[1]).Count()
		want := one.Query().Since(win[0]).Until(win[1]).Count()
		if got != want {
			t.Errorf("window [%g,%g): AddAll store counts %d, Add store %d", win[0], win[1], got, want)
		}
	}
	if got, want := fmt.Sprint(batch.Query().Starts()), fmt.Sprint(one.Query().Starts()); got != want {
		t.Error("Starts diverged between AddAll and Add stores")
	}
}

// TestShardedMatchesStore cross-checks every aggregation of the Query
// surface, under every filter, between Sharded stores of 1, 2, 3 and 8
// shards and a single Store fed the same batches: assigned IDs, an
// explicit-ID batch that routes wholly to one shard, and a negative
// explicit ID. Sample aggregations compare as sorted multisets: their
// order across shards is unspecified.
func TestShardedMatchesStore(t *testing.T) {
	// Every explicit ID in the second batch is 5 mod 24, so it lands on
	// shard 5 % n for each n under test (24 is their least common multiple).
	oneShard := shardReports(20, 500)
	for i := range oneShard {
		oneShard[i].ID = 24*(30+i) + 5
	}
	negative := shardReports(2, 600)
	negative[0].ID = -7
	batches := [][]Report{shardReports(500, 0), oneShard, negative}
	ref := NewStore()
	var refIDs [][]int
	for _, b := range batches {
		ids, err := ref.AddAll(b)
		if err != nil {
			t.Fatal(err)
		}
		refIDs = append(refIDs, ids)
	}
	where, err := ParseFilter(url.Values{"year": {"2014"}, "design": {"fabric"}, "since": {"100"}})
	if err != nil {
		t.Fatal(err)
	}
	filters := []struct {
		name   string
		narrow func(Query) Query
	}{
		{"all", func(q Query) Query { return q }},
		{"Year", func(q Query) Query { return q.Year(2013) }},
		{"DeviceType", func(q Query) Query { return q.DeviceType(topology.CSW) }},
		{"Severity", func(q Query) Query { return q.Severity(Sev2) }},
		{"Design", func(q Query) Query { return q.Design(topology.DesignCluster) }},
		{"RootCause", func(q Query) Query { return q.RootCause(Hardware) }},
		// Window queries exercise the merged byStart index on every shard.
		{"Since/Until", func(q Query) Query { return q.Since(50).Until(500) }},
		{"Where", func(q Query) Query { return q.Where(where) }},
	}
	sorted := func(xs []float64) []float64 { sort.Float64s(xs); return xs }
	aggs := []struct {
		name string
		run  func(Query) any
	}{
		{"Reports", func(q Query) any { return q.Reports() }},
		{"Count", func(q Query) any { return q.Count() }},
		{"CountByDeviceType", func(q Query) any { return q.CountByDeviceType() }},
		{"CountBySeverity", func(q Query) any { return q.CountBySeverity() }},
		{"CountByYear", func(q Query) any { return q.CountByYear() }},
		{"CountByRootCause", func(q Query) any { return q.CountByRootCause() }},
		{"CountBySeverityDeviceType", func(q Query) any { return q.CountBySeverityDeviceType() }},
		{"CountByYearSeverity", func(q Query) any { return q.CountByYearSeverity() }},
		{"CountByYearDeviceType", func(q Query) any { return q.CountByYearDeviceType() }},
		{"CountByYearDesign", func(q Query) any { return q.CountByYearDesign() }},
		{"Resolutions", func(q Query) any { return sorted(q.Resolutions()) }},
		{"ResolutionsByDeviceType", func(q Query) any { return sortedSamples(q.ResolutionsByDeviceType()) }},
		{"ResolutionsByYear", func(q Query) any { return sortedSamples(q.ResolutionsByYear()) }},
		{"Starts", func(q Query) any { return q.Starts() }},
	}
	for _, n := range []int{1, 2, 3, 8} {
		t.Run(fmt.Sprintf("shards=%d", n), func(t *testing.T) {
			sh := NewSharded(n)
			for i, b := range batches {
				before := sh.shards[5%n].Len()
				ids, err := sh.AddAll(b)
				if err != nil {
					t.Fatal(err)
				}
				if fmt.Sprint(ids) != fmt.Sprint(refIDs[i]) {
					t.Errorf("batch %d: sharded IDs %v, store IDs %v", i, ids, refIDs[i])
				}
				if i == 1 && sh.shards[5%n].Len()-before != len(b) {
					t.Errorf("explicit batch did not land wholly on shard %d", 5%n)
				}
			}
			if sh.Len() != ref.Len() {
				t.Fatalf("sharded Len = %d, store Len = %d", sh.Len(), ref.Len())
			}
			for _, want := range ref.All() {
				if got, err := sh.Get(want.ID); err != nil || !reflect.DeepEqual(got, want) {
					t.Errorf("Get(%d) = %+v, %v; want %+v", want.ID, got, err, want)
				}
			}
			for _, id := range []int{0, 501, -8, math.MaxInt, math.MinInt} {
				if _, err := sh.Get(id); err == nil {
					t.Errorf("Get(%d) of a missing ID succeeded", id)
				}
			}
			for _, f := range filters {
				if f.narrow(ref.Query()).Count() == 0 {
					t.Fatalf("filter %s matches nothing; the comparison would be vacuous", f.name)
				}
				for _, a := range aggs {
					got := fmt.Sprint(a.run(f.narrow(sh.Query())))
					want := fmt.Sprint(a.run(f.narrow(ref.Query())))
					if got != want {
						t.Errorf("%s.%s: sharded %s, store %s", f.name, a.name, got, want)
					}
				}
			}
		})
	}
}

func sortedSamples[K comparable](m map[K][]float64) map[K][]float64 {
	for _, xs := range m {
		sort.Float64s(xs)
	}
	return m
}

// TestShardedAddAllIDs pins the global ID contract: assigned IDs are
// unique across shards, explicit IDs are preserved, and duplicates are
// rejected without partial ingest.
func TestShardedAddAllIDs(t *testing.T) {
	sh := NewSharded(3)
	ids, err := sh.AddAll(shardReports(10, 0))
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, id := range ids {
		if id <= 0 || seen[id] {
			t.Fatalf("assigned IDs not unique/positive: %v", ids)
		}
		seen[id] = true
	}
	explicit := shardReports(2, 20)
	explicit[0].ID = 100
	explicit[1].ID = 101
	if _, err := sh.AddAll(explicit); err != nil {
		t.Fatal(err)
	}
	if r, err := sh.Get(100); err != nil || r.ID != 100 {
		t.Errorf("Get(100) = %+v, %v", r, err)
	}
	dup := shardReports(1, 30)
	dup[0].ID = 100
	_, err = sh.AddAll(dup)
	if err == nil || !strings.Contains(err.Error(), "duplicate report ID 100") {
		t.Fatalf("duplicate explicit ID not rejected: %v", err)
	}
	if n := sh.Len(); n != 12 {
		t.Errorf("Len after rejected batch = %d, want 12", n)
	}
	// Fresh assignments dodge the explicit range.
	more, err := sh.AddAll(shardReports(3, 40))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range more {
		if id == 100 || id == 101 {
			t.Errorf("fresh ID collided with explicit: %v", more)
		}
	}
}

// TestShardedGeneration pins the cache-invalidation contract: every
// successful ingest bumps the generation exactly once; a rejected batch
// does not.
func TestShardedGeneration(t *testing.T) {
	sh := NewSharded(2)
	if g := sh.Generation(); g != 0 {
		t.Fatalf("fresh generation = %d", g)
	}
	if _, err := sh.AddAll(shardReports(4, 0)); err != nil {
		t.Fatal(err)
	}
	if g := sh.Generation(); g != 1 {
		t.Fatalf("generation after ingest = %d, want 1", g)
	}
	bad := shardReports(1, 5)
	bad[0].Device = ""
	if _, err := sh.AddAll(bad); err == nil {
		t.Fatal("invalid report accepted")
	}
	if g := sh.Generation(); g != 1 {
		t.Errorf("generation bumped by rejected batch: %d", g)
	}
}

// TestShardedIngestWhileQuerying is the -race test from the issue:
// concurrent AddAll batches and fan-out queries on every aggregation
// must be data-race free and observe consistent (monotonic) counts.
func TestShardedIngestWhileQuerying(t *testing.T) {
	sh := NewSharded(4)
	if _, err := sh.AddAll(shardReports(100, 0)); err != nil {
		t.Fatal(err)
	}
	const (
		writers = 2
		batches = 10
		readers = 4
	)
	var writerWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for b := 0; b < batches; b++ {
				if _, err := sh.AddAll(shardReports(20, 1000+w*10000+b*100)); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var readerWG sync.WaitGroup
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			last := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := sh.Query().Count()
				if n < last {
					t.Errorf("reader %d: count went backwards (%d -> %d)", r, last, n)
					return
				}
				last = n
				switch r % 4 {
				case 0:
					sh.Query().Year(2013).CountBySeverity()
				case 1:
					sh.Query().DeviceType(topology.RSW).Count()
				case 2:
					sh.Query().Since(10).Until(400).Count()
				case 3:
					sh.Query().ResolutionsByYear()
				}
			}
		}(r)
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	if got, want := sh.Query().Count(), 100+writers*batches*20; got != want {
		t.Errorf("final count = %d, want %d", got, want)
	}
}

// TestShardedEpochIsAContentHash pins the dataset epoch: equal data in
// equal batches agrees on it at any shard count, while a change to any
// single report field, or the same data under different IDs, moves it —
// even at an equal generation.
func TestShardedEpochIsAContentHash(t *testing.T) {
	epochOf := func(shards int, batches ...[]Report) (gen, epoch uint64) {
		t.Helper()
		s := NewSharded(shards)
		for _, b := range batches {
			if _, err := s.AddAll(b); err != nil {
				t.Fatal(err)
			}
		}
		return s.Generation(), s.Epoch()
	}
	base := shardReports(20, 0)
	for i := range base {
		base[i].Title = "t"
		base[i].Impact = "i"
		base[i].ServicesAffected = []string{"svc"}
		base[i].Reviewer = "r"
	}
	gen, epoch := epochOf(2, base)
	if epoch == 0 {
		t.Fatal("epoch not set after ingest")
	}
	if g, e := epochOf(3, base); g != gen || e != epoch {
		t.Errorf("same data, different shard count: epoch %x, want %x", e, epoch)
	}

	// Perturb each field of one report in turn (reflection keeps the test
	// honest when Report grows a field).
	rt := reflect.TypeOf(Report{})
	for f := 0; f < rt.NumField(); f++ {
		batch := append([]Report(nil), base...)
		r := &batch[7]
		fv := reflect.ValueOf(r).Elem().Field(f)
		switch fv.Kind() {
		case reflect.Int:
			fv.SetInt(fv.Int() + 1)
			if rt.Field(f).Name == "Severity" {
				fv.SetInt(1 + fv.Int()%3)
			}
		case reflect.Float64:
			fv.SetFloat(fv.Float() + 0.5)
		case reflect.String:
			fv.SetString(fv.String() + "x")
		case reflect.Bool:
			fv.SetBool(!fv.Bool())
		case reflect.Slice:
			fv.Set(reflect.Append(fv, fv.Index(0)))
		default:
			t.Fatalf("field %s: unhandled kind %s", rt.Field(f).Name, fv.Kind())
		}
		if rt.Field(f).Name == "ID" {
			r.ID = 1000 // explicit, distinct from the assigned 1..20
		}
		if g, e := epochOf(2, batch); g != gen || e == epoch {
			t.Errorf("changing %s left the epoch at %x (generation %d vs %d)", rt.Field(f).Name, e, g, gen)
		}
	}

	// The epoch chains across batches: more data, new epoch.
	if _, e := epochOf(2, base, shardReports(1, 99)); e == epoch {
		t.Error("a second batch left the epoch unchanged")
	}
}

// FuzzReadJSON feeds one dataset to Store.ReadJSON and to a three-shard
// Sharded.ReadJSON. Both must accept it or both reject it; once both
// accept, they must hold the same reports under the same IDs.
func FuzzReadJSON(f *testing.F) {
	dataset := func(ids ...int) []byte {
		reports := shardReports(len(ids), 0)
		for i := range reports {
			reports[i].ID = ids[i]
		}
		b, err := json.Marshal(reports)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	f.Add(dataset(1, 2, 3, 4, 5, 6))
	f.Add(dataset(1, 2, 2))
	f.Add(dataset(0, 0, 3, 1))
	f.Add(dataset(-4, 2, -1, 0))
	f.Add(dataset(9, 3, 7, 1))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		st, sh := NewStore(), NewSharded(3)
		errSt, errSh := st.ReadJSON(bytes.NewReader(data)), sh.ReadJSON(bytes.NewReader(data))
		if (errSt == nil) != (errSh == nil) {
			t.Fatalf("Store.ReadJSON: %v; Sharded.ReadJSON: %v", errSt, errSh)
		}
		if errSt != nil {
			return
		}
		if st.Len() != sh.Len() {
			t.Fatalf("Store Len %d, Sharded Len %d", st.Len(), sh.Len())
		}
		want := st.Query().Reports()
		if got := sh.Query().Reports(); !reflect.DeepEqual(got, want) {
			t.Fatalf("Reports differ:\nsharded %+v\nstore   %+v", got, want)
		}
		for _, r := range want {
			a, errA := st.Get(r.ID)
			b, errB := sh.Get(r.ID)
			if errA != nil || errB != nil || !reflect.DeepEqual(a, b) {
				t.Fatalf("Get(%d): store %+v, %v; sharded %+v, %v", r.ID, a, errA, b, errB)
			}
		}
	})
}
