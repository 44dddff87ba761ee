package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	parent := []float64{100, 101, 99, 102, 98, 100, 101, 99, 100, 100}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{50, 150, 80, 120, 100, 60, 140, 90, 110, 70}
	for _, tc := range []struct {
		name           string
		parent, change []float64
		better         string
		want           string
	}{
		{"clear win", parent, scaled(parent, 0.8), "lower", "improved"},
		{"clear win, higher is better", parent, scaled(parent, 1.2), "higher", "improved"},
		{"regression", parent, scaled(parent, 1.2), "lower", "regressed"},
		{"within bound", parent, scaled(parent, 1.03), "lower", "no worse"},
		{"wide spread", wide, []float64{55, 140, 90, 110, 95, 70, 150, 85, 100, 80}, "lower", "unresolved"},
		{"wide spread, every change run better", wide, []float64{40, 41, 42, 43, 44, 45, 46, 47, 48, 49}, "lower", "no worse"},
	} {
		v := judge(tc.parent, tc.change, tc.better, 0.1)
		if v.verdict != tc.want {
			t.Errorf("%s: verdict %q (wins %d/%d, worse %.3f, spread %.3f), want %q",
				tc.name, v.verdict, v.wins, v.pairs, v.worse, v.spread, tc.want)
		}
	}
}

func TestCompareReadsResultSets(t *testing.T) {
	dir := t.TempDir()
	spec := `{"end_to_end": [{"name": "op_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}`
	write := func(path, content string) {
		t.Helper()
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(filepath.Join(dir, "BENCHMARK.json"), spec)
	for i, v := range []string{"10", "11", "10.5", "9.5", "10"} {
		run := string(rune('a' + i))
		write(filepath.Join(dir, "parent", "serve", run), `{"header":{}}`+"\n"+
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"op_ms":{"value":`+v+`,"unit":"ms"}}}`+"\n")
		write(filepath.Join(dir, "change", "serve", run),
			`{"correct":true,"attempted":1,"failed":0,"metrics":{"op_ms":{"value":`+v+`0,"unit":"ms"}}}`)
	}
	var out strings.Builder
	code := compareMain([]string{"-spec", filepath.Join(dir, "BENCHMARK.json"),
		filepath.Join(dir, "parent"), filepath.Join(dir, "change")}, &out)
	if code != 1 || !strings.Contains(out.String(), "regressed") {
		t.Errorf("compare exit %d, output:\n%s\nwant a regression (exit 1)", code, out.String())
	}
}
