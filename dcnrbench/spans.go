package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one traced pass share a
// run ID; Parent is the ID of the enclosing span, 0 for a pass's root.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"`
	Run    string        `json:"run"`
	Layer  string        `json:"layer"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer records spans in memory, single-threaded. A nil *tracer records
// nothing, so the untraced pass runs the same code with tracing off.
type tracer struct {
	t0    time.Time
	run   string
	spans []span
	open  []int // indices into spans of the spans not yet ended
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// startRun makes later spans belong to run id.
func (t *tracer) startRun(id string) {
	if t != nil {
		t.run = id
	}
}

// begin opens a span nested in the innermost open span.
func (t *tracer) begin(layer, name string) {
	if t == nil {
		return
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Layer: layer, Name: name, Start: time.Since(t.t0),
	})
	t.open = append(t.open, len(t.spans)-1)
}

// end closes the innermost open span and returns its duration.
func (t *tracer) end() time.Duration {
	if t == nil {
		return 0
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].End = time.Since(t.t0)
	return t.spans[i].dur()
}

// add records an already-timed span (e.g. one the program recorded
// itself) under parent.
func (t *tracer) add(parent int, layer, name string, start, end time.Duration) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Run: t.run,
		Layer: layer, Name: name, Start: start, End: end,
	})
}

// lastID is the ID of the most recently opened span.
func (t *tracer) lastID() int { return len(t.spans) }

// selfTimes returns each layer's self time: the sum over its spans of the
// span's duration minus the part of that interval its child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered returns how much of parent's interval the union of kids covers.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// coverage returns, for the root spans of the given runs, the share of
// their wall time their direct children cover — the part of a traced
// pass attributed to some layer.
func coverage(spans []span, runs map[string]bool) float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	var wall, cov time.Duration
	for _, s := range spans {
		if s.Parent == 0 && runs[s.Run] {
			wall += s.dur()
			cov += covered(s, children[s.ID])
		}
	}
	if wall == 0 {
		return 0
	}
	return float64(cov) / float64(wall)
}

// writeSpans writes the recorded spans as JSON to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
