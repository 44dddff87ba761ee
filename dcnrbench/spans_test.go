package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsNestedChildren(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	// pass [0,100] holds a faults span [10,60] and a core span [60,90];
	// the faults span holds a sev span [20,30] and another [25,40] that
	// overlaps it, so together they cover 20 ms of it, not 25.
	spans := []span{
		{ID: 1, Run: "r", Layer: "bench", Start: ms(0), End: ms(100)},
		{ID: 2, Parent: 1, Run: "r", Layer: "faults", Start: ms(10), End: ms(60)},
		{ID: 3, Parent: 2, Run: "r", Layer: "sev", Start: ms(20), End: ms(30)},
		{ID: 4, Parent: 2, Run: "r", Layer: "sev", Start: ms(25), End: ms(40)},
		{ID: 5, Parent: 1, Run: "r", Layer: "core", Start: ms(60), End: ms(90)},
	}
	want := map[string]time.Duration{"bench": ms(20), "faults": ms(30), "sev": ms(25), "core": ms(30)}
	got := selfTimes(spans)
	for layer, d := range want {
		if got[layer] != d {
			t.Errorf("self time of %s = %v, want %v", layer, got[layer], d)
		}
	}
	if len(got) != len(want) {
		t.Errorf("self times for %v, want only %v", got, want)
	}
	if c := coverage(spans, map[string]bool{"r": true}); c != 0.8 {
		t.Errorf("coverage = %v, want 0.8", c)
	}
}

func TestTracerNestsSpansUnderTheOpenOne(t *testing.T) {
	tr := newTracer()
	tr.startRun("pass0")
	tr.begin("bench", "pass")
	tr.begin("faults", "Driver.Run")
	tr.begin("sev", "Store.Add")
	tr.end()
	tr.end()
	tr.begin("core", "analysis")
	tr.end()
	tr.end()
	parents := map[string]int{"pass": 0, "Driver.Run": 1, "Store.Add": 2, "analysis": 1}
	for _, s := range tr.spans {
		if s.Parent != parents[s.Name] || s.Run != "pass0" || s.End < s.Start {
			t.Errorf("span %+v: want parent %d in run pass0", s, parents[s.Name])
		}
	}
	var nilTracer *tracer
	nilTracer.begin("x", "y") // a nil tracer records nothing
	if d := nilTracer.end(); d != 0 {
		t.Errorf("nil tracer end = %v", d)
	}
}
