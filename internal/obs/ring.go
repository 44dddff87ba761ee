package obs

import (
	"strconv"
	"time"
)

// SpanRing is a batched span recorder for instrumented hot loops: a
// Stage of compact, allocation-free records that is flushed into the
// owning Tracer in batches, so the hot path never builds an args map and
// takes a lock only once per StageBatch records.
//
// A ring is SINGLE-WRITER: exactly one goroutine may call Record /
// RecordWall / Flush at a time (callers that share a ring across
// goroutines, like the remediation engine, serialize on their own mutex).
// Readers (Tracer.Events, Tracer.WriteJSON, Tracer.Len) see only flushed
// records, so the writer must Flush before the trace is read — the DES
// kernel flushes on every Run/Step exit, the remediation engine in
// FlushTrace.
//
// Each record carries a name (an index into the ring's name table, or -1
// for the ring's default name), trace timestamps, and up to ringArgs
// numeric args materialized under the ring's fixed arg keys. String-valued
// args that are constant across the ring (a device type, a lane label) go
// in ConstArgs once instead of per record.
//
// Record, RecordWall, Flush, SetNames, and SetConstArg are safe on a nil
// *SpanRing, so call sites can hold an unconditional ring field that is
// nil when tracing is off.
type SpanRing struct {
	t        *Tracer
	pid, tid int
	cat      string
	name     string

	// names is the optional per-record name table; Record's name argument
	// indexes it. Set via SetNames before the first Record.
	names []string
	// keys are the arg keys, at most ringArgs; len(keys) args are
	// materialized per record.
	keys []string
	// constArgs are (key, value) pairs attached to every record.
	constArgs [][2]string

	Stage[spanRec]
}

// ringArgs is the per-record numeric arg capacity.
const ringArgs = 3

// spanRec is one compact span record: 48 bytes, no pointers, so a full
// staging buffer is a single 12 KiB GC-free block.
type spanRec struct {
	name int32 // index into SpanRing.names; -1 = ring default name
	ts   float64
	dur  float64
	args [ringArgs]float64
}

// Ring creates a batched span recorder on the given track and lane. The
// keys (at most 3) name the numeric args each record carries. Returns nil
// on a nil Tracer; every SpanRing method is nil-safe.
//
// name, cat, keys, and any SetNames / SetConstArg strings must be plain
// JSON-safe text (no quotes, backslashes, or control characters): the
// trace writer emits them without escaping.
func (t *Tracer) Ring(pid, tid int, cat, name string, keys ...string) *SpanRing {
	if t == nil {
		return nil
	}
	if len(keys) > ringArgs {
		keys = keys[:ringArgs]
	}
	r := &SpanRing{t: t, pid: pid, tid: tid, cat: cat, name: name, keys: keys}
	t.mu.Lock()
	t.rings = append(t.rings, r)
	t.mu.Unlock()
	return r
}

// SetNames installs the per-record name table; Record's first argument
// indexes it. Call once, before the first Record.
func (r *SpanRing) SetNames(names ...string) *SpanRing {
	if r == nil {
		return r
	}
	r.names = names
	return r
}

// SetConstArg attaches a string arg emitted with every record — for values
// that are constant across the ring, like the device type of a lane.
func (r *SpanRing) SetConstArg(key, value string) *SpanRing {
	if r == nil {
		return r
	}
	r.constArgs = append(r.constArgs, [2]string{key, value})
	return r
}

// Record appends a span with explicit trace timestamps (microseconds on
// the ring's track). name indexes the SetNames table; pass -1 for the
// ring's default name. Unused args are ignored at materialization (only
// len(keys) args are emitted).
//
//hot:noalloc
func (r *SpanRing) Record(name int32, ts, dur, a0, a1, a2 float64) {
	if r == nil {
		return
	}
	if r.Add(spanRec{name: name, ts: ts, dur: dur, args: [ringArgs]float64{a0, a1, a2}}) {
		r.Flush()
	}
}

// RecordWall appends a wall-clock span measured by (start, wall),
// positioned relative to the tracer's origin — the hot-loop replacement
// for Begin/End that costs two plain stores instead of a map and a lock.
//
//hot:noalloc
func (r *SpanRing) RecordWall(name int32, start time.Time, wall time.Duration, a0, a1, a2 float64) {
	if r == nil {
		return
	}
	ts := float64(start.Sub(r.t.start)) / float64(time.Microsecond)
	r.Record(name, ts, float64(wall)/float64(time.Microsecond), a0, a1, a2)
}

// Flush publishes the staged records to readers. Only the writer may call
// it.
func (r *SpanRing) Flush() {
	if r == nil {
		return
	}
	r.Stage.Flush()
}

// recName resolves a record's span name.
func (r *SpanRing) recName(rec spanRec) string {
	if rec.name >= 0 && int(rec.name) < len(r.names) {
		return r.names[rec.name]
	}
	return r.name
}

// materialize converts the flushed records to regular Events (args maps
// included) — the compatibility path behind Tracer.Events.
func (r *SpanRing) materialize() []Event {
	var recs []spanRec
	for _, blk := range r.Blocks() {
		recs = append(recs, blk...)
	}
	out := make([]Event, 0, len(recs))
	for _, rec := range recs {
		args := make(map[string]any, len(r.keys)+len(r.constArgs))
		for _, kv := range r.constArgs {
			args[kv[0]] = kv[1]
		}
		for i, k := range r.keys {
			args[k] = rec.args[i]
		}
		out = append(out, Event{
			Name:  r.recName(rec),
			Cat:   r.cat,
			Phase: "X",
			TS:    rec.ts,
			Dur:   rec.dur,
			PID:   r.pid,
			TID:   r.tid,
			Args:  args,
		})
	}
	return out
}

// appendJSONRecs writes the given records as trace-event JSON objects,
// comma-prefixed, assuming at least one event precedes them (the caller
// always writes the track-name metadata first). The encoder is hand-rolled:
// on a 200k-span trace the generic map-based path costs more than the
// simulation itself. Callers chunk recs so the output buffer can flush
// between chunks.
func (r *SpanRing) appendJSONRecs(b []byte, recs []spanRec) []byte {
	// The name-independent middle of every record is identical; build it
	// once.
	mid := []byte(`","cat":"` + r.cat + `","ph":"X","ts":`)
	var tail []byte
	tail = append(tail, `,"pid":`...)
	tail = strconv.AppendInt(tail, int64(r.pid), 10)
	tail = append(tail, `,"tid":`...)
	tail = strconv.AppendInt(tail, int64(r.tid), 10)
	tail = append(tail, `,"args":{`...)
	for _, kv := range r.constArgs {
		tail = append(tail, '"')
		tail = append(tail, kv[0]...)
		tail = append(tail, `":"`...)
		tail = append(tail, kv[1]...)
		tail = append(tail, `",`...)
	}
	for _, rec := range recs {
		b = append(b, `,{"name":"`...)
		b = append(b, r.recName(rec)...)
		b = append(b, mid...)
		b = AppendFixed(b, rec.ts, traceDigits)
		b = append(b, `,"dur":`...)
		b = AppendFixed(b, rec.dur, traceDigits)
		b = append(b, tail...)
		for i, k := range r.keys {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, '"')
			b = append(b, k...)
			b = append(b, `":`...)
			b = AppendFixed(b, rec.args[i], traceDigits)
		}
		b = append(b, `}}`...)
	}
	return b
}

// traceDigits is the fractional precision of trace-event numbers:
// nanosecond resolution on microsecond timestamps. Finer precision is
// below what the viewer renders, and a fixed short precision keeps a
// 200k-event file tens of percent smaller than shortest-round-trip
// formatting.
const traceDigits = 3
