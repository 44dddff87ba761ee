package sev

import (
	"sort"

	"dcnr/internal/topology"
)

// Query is a filtered view over a Store's — or a Sharded store's —
// reports. The zero-filter Query matches everything; the builder methods
// and Where narrow it. Queries are values: narrowing returns a new Query
// and never mutates the receiver.
//
// Evaluation uses the store's secondary indexes: every set-valued predicate
// (year, device type, severity, design, root cause) selects a posting list,
// the lists are intersected starting from the smallest, and the Since/Until
// window is applied as a residual filter over the candidates. A query
// narrowed only by the time window (for example Query().Since(a).Until(b))
// binary-searches the store's start-time-sorted index for the matching
// range instead; only a query with no predicate at all scans sequentially.
// An instrumented store (Store.Instrument) counts the two paths as
// sev_queries_indexed_total vs sev_queries_scan_total, so scan regressions
// show up in metrics instead of only in latency.
//
// A query over a Sharded store runs each aggregation on every shard in
// parallel and merges the partial results (collect).
type Query struct {
	store  *Store
	shards *Sharded
	f      Filter
}

// Query starts a query over all reports in the store.
func (s *Store) Query() Query { return Query{store: s} }

// Where narrows the query by every predicate f sets; a predicate both
// set keeps f's value.
func (q Query) Where(f Filter) Query {
	if f.set&fYear != 0 {
		q.f.year = f.year
	}
	if f.set&fDevice != 0 {
		q.f.device = f.device
	}
	if f.set&fSeverity != 0 {
		q.f.severity = f.severity
	}
	if f.set&fDesign != 0 {
		q.f.design = f.design
	}
	if f.set&fCause != 0 {
		q.f.cause = f.cause
	}
	if f.set&fSince != 0 {
		q.f.since = f.since
	}
	if f.set&fUntil != 0 {
		q.f.until = f.until
	}
	q.f.set |= f.set
	return q
}

// Year narrows to incidents that started in the given calendar year.
func (q Query) Year(y int) Query { q.f.year = y; q.f.set |= fYear; return q }

// DeviceType narrows to incidents whose offending device has type t.
func (q Query) DeviceType(t topology.DeviceType) Query {
	q.f.device = t
	q.f.set |= fDevice
	return q
}

// Severity narrows to incidents of the given level.
func (q Query) Severity(v Severity) Query { q.f.severity = v; q.f.set |= fSeverity; return q }

// Design narrows to incidents on devices of the given network design.
func (q Query) Design(d topology.Design) Query { q.f.design = d; q.f.set |= fDesign; return q }

// RootCause narrows to incidents that carry the given root-cause category
// (a multi-cause SEV matches each of its categories, per §5.1's counting
// rule).
func (q Query) RootCause(c RootCause) Query { q.f.cause = c; q.f.set |= fCause; return q }

// Since narrows to incidents starting at or after t (hours since epoch).
func (q Query) Since(t float64) Query { q.f.since = t; q.f.set |= fSince; return q }

// Until narrows to incidents starting strictly before t (hours since
// epoch). Since(a).Until(b) selects the half-open window [a, b).
func (q Query) Until(t float64) Query { q.f.until = t; q.f.set |= fUntil; return q }

// postingsLocked collects the posting lists selected by q's indexed
// predicates. indexed is false when q has none. A predicate whose key is
// absent from its index yields an empty list, which makes the
// intersection empty. Caller holds the store's read lock.
func (q Query) postingsLocked() (lists [][]int, indexed bool) {
	s, f := q.store, &q.f
	if f.set&fYear != 0 {
		lists = append(lists, s.byYear[f.year])
	}
	if f.set&fDevice != 0 {
		lists = append(lists, s.byType[f.device])
	}
	if f.set&fSeverity != 0 {
		lists = append(lists, s.bySev[f.severity])
	}
	if f.set&fDesign != 0 {
		lists = append(lists, s.byDesign[f.design])
	}
	if f.set&fCause != 0 {
		lists = append(lists, s.byCause[f.cause])
	}
	return lists, f.set&^(fSince|fUntil) != 0
}

// intersectPostings intersects sorted position lists, iterating the
// smallest and merge-filtering through the rest.
func intersectPostings(lists [][]int) []int {
	if len(lists) == 0 {
		return nil
	}
	sort.Slice(lists, func(i, j int) bool { return len(lists[i]) < len(lists[j]) })
	out := lists[0]
	for _, list := range lists[1:] {
		if len(out) == 0 {
			return nil
		}
		merged := make([]int, 0, len(out))
		j := 0
		for _, pos := range out {
			for j < len(list) && list[j] < pos {
				j++
			}
			if j == len(list) {
				break
			}
			if list[j] == pos {
				merged = append(merged, pos)
			}
		}
		out = merged
	}
	return out
}

// forEach invokes fn for every matching report in position (= ID) order,
// holding the store's read lock for the duration.
func (q Query) forEach(fn func(pos int, r *Report)) {
	s := q.store
	s.mu.RLock()
	defer s.mu.RUnlock()
	if lists, indexed := q.postingsLocked(); indexed {
		s.mIndexed.Inc()
		if s.hPostings != nil {
			for _, list := range lists {
				s.hPostings.Observe(float64(len(list)))
			}
		}
		candidates := intersectPostings(lists)
		s.hCandidates.Observe(float64(len(candidates)))
		for _, pos := range candidates {
			if r := &s.reports[pos]; q.f.matchesWindow(r) {
				fn(pos, r)
			}
		}
		return
	}
	if q.f.set != 0 {
		// Window-only query: binary search the start-time index for the
		// matching range, then restore position order for the caller.
		s.mIndexed.Inc()
		in := s.startRangeLocked(&q.f)
		s.hCandidates.Observe(float64(len(in)))
		candidates := append([]int(nil), in...)
		sort.Ints(candidates)
		for _, pos := range candidates {
			fn(pos, &s.reports[pos])
		}
		return
	}
	s.mScanned.Inc()
	for pos := range s.reports {
		fn(pos, &s.reports[pos])
	}
}

// Reports returns the matching reports in ID order.
func (q Query) Reports() []Report {
	out := collect(q, func(q Query) []Report {
		var out []Report
		q.forEach(func(_ int, r *Report) { out = append(out, *r) })
		return out
	}, concat)
	// Positions follow ingest order, which explicit IDs need not.
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Count returns the number of matching reports.
func (q Query) Count() int {
	return collect(q, func(q Query) int {
		n := 0
		q.forEach(func(int, *Report) { n++ })
		return n
	}, func(parts []int) int {
		n := 0
		for _, c := range parts {
			n += c
		}
		return n
	})
}

// CountByDeviceType groups matching reports by offending device type.
func (q Query) CountByDeviceType() map[topology.DeviceType]int {
	return collect(q, func(q Query) map[topology.DeviceType]int {
		out := make(map[topology.DeviceType]int)
		q.forEach(func(pos int, _ *Report) {
			if t := q.store.types[pos]; t >= 0 {
				out[t]++
			}
		})
		return out
	}, mergeCounts)
}

// CountBySeverity groups matching reports by severity level.
func (q Query) CountBySeverity() map[Severity]int {
	return collect(q, func(q Query) map[Severity]int {
		out := make(map[Severity]int)
		q.forEach(func(_ int, r *Report) { out[r.Severity]++ })
		return out
	}, mergeCounts)
}

// CountByYear groups matching reports by start year.
func (q Query) CountByYear() map[int]int {
	return collect(q, func(q Query) map[int]int {
		out := make(map[int]int)
		q.forEach(func(_ int, r *Report) { out[r.Year]++ })
		return out
	}, mergeCounts)
}

// CountByRootCause groups matching reports by root-cause category. A SEV
// with multiple root causes counts toward each (§5.1); one with none counts
// as Undetermined.
func (q Query) CountByRootCause() map[RootCause]int {
	return collect(q, func(q Query) map[RootCause]int {
		out := make(map[RootCause]int)
		q.forEach(func(_ int, r *Report) {
			for _, c := range r.EffectiveRootCauses() {
				out[c]++
			}
		})
		return out
	}, mergeCounts)
}

// CountBySeverityDeviceType groups matching reports by severity level and,
// within each level, by device type — Figure 4's nested breakdown in one
// pass.
func (q Query) CountBySeverityDeviceType() map[Severity]map[topology.DeviceType]int {
	return collect(q, func(q Query) map[Severity]map[topology.DeviceType]int {
		out := make(map[Severity]map[topology.DeviceType]int)
		q.forEach(func(pos int, r *Report) {
			row := nestedRow(out, r.Severity)
			if t := q.store.types[pos]; t >= 0 {
				row[t]++
			}
		})
		return out
	}, mergeNested)
}

// CountByYearSeverity groups matching reports by start year and severity
// level in one pass (Figure 5's numerators).
func (q Query) CountByYearSeverity() map[int]map[Severity]int {
	return collect(q, func(q Query) map[int]map[Severity]int {
		out := make(map[int]map[Severity]int)
		q.forEach(func(_ int, r *Report) { nestedRow(out, r.Year)[r.Severity]++ })
		return out
	}, mergeNested)
}

// CountByYearDeviceType groups matching reports by start year and device
// type in one pass (Figures 7 and 8's numerators).
func (q Query) CountByYearDeviceType() map[int]map[topology.DeviceType]int {
	return collect(q, func(q Query) map[int]map[topology.DeviceType]int {
		out := make(map[int]map[topology.DeviceType]int)
		q.forEach(func(pos int, r *Report) {
			row := nestedRow(out, r.Year)
			if t := q.store.types[pos]; t >= 0 {
				row[t]++
			}
		})
		return out
	}, mergeNested)
}

// CountByYearDesign groups matching reports by start year and network
// design in one pass (Figures 9 and 10's numerators).
func (q Query) CountByYearDesign() map[int]map[topology.Design]int {
	return collect(q, func(q Query) map[int]map[topology.Design]int {
		out := make(map[int]map[topology.Design]int)
		q.forEach(func(pos int, r *Report) {
			row := nestedRow(out, r.Year)
			if t := q.store.types[pos]; t >= 0 {
				row[t.Design()]++
			}
		})
		return out
	}, mergeNested)
}

// nestedRow returns the inner map for k1, creating it on first use.
func nestedRow[K1, K2 comparable](m map[K1]map[K2]int, k1 K1) map[K2]int {
	row := m[k1]
	if row == nil {
		row = make(map[K2]int)
		m[k1] = row
	}
	return row
}

// Resolutions returns the resolution times (hours) of matching reports:
// in ID order on a plain store, in unspecified order on a sharded one
// (percentile consumers sort anyway).
func (q Query) Resolutions() []float64 {
	return collect(q, func(q Query) []float64 {
		var out []float64
		q.forEach(func(_ int, r *Report) { out = append(out, r.Resolution) })
		return out
	}, concat)
}

// ResolutionsByDeviceType groups matching reports' resolution times by
// device type in one pass (Figure 13's samples).
func (q Query) ResolutionsByDeviceType() map[topology.DeviceType][]float64 {
	return collect(q, func(q Query) map[topology.DeviceType][]float64 {
		out := make(map[topology.DeviceType][]float64)
		q.forEach(func(pos int, r *Report) {
			if t := q.store.types[pos]; t >= 0 {
				out[t] = append(out[t], r.Resolution)
			}
		})
		return out
	}, mergeSamples)
}

// ResolutionsByYear groups matching reports' resolution times by start
// year in one pass (Figure 14's samples).
func (q Query) ResolutionsByYear() map[int][]float64 {
	return collect(q, func(q Query) map[int][]float64 {
		out := make(map[int][]float64)
		q.forEach(func(_ int, r *Report) { out[r.Year] = append(out[r.Year], r.Resolution) })
		return out
	}, mergeSamples)
}

// Starts returns the start times (hours since epoch) of matching reports
// in ascending order.
func (q Query) Starts() []float64 {
	return collect(q, func(q Query) []float64 {
		var out []float64
		q.forEach(func(_ int, r *Report) { out = append(out, r.Start) })
		sort.Float64s(out)
		return out
	}, func(parts [][]float64) []float64 {
		out := concat(parts)
		sort.Float64s(out)
		return out
	})
}
