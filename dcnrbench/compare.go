package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// benchSpec is the part of BENCHMARK.json the compare tool reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// resultSet maps workload → run name → result. A result set on disk is a
// directory with one subdirectory per workload, holding one file per run
// (the run's standard output); runs pair up across sets by file name, so
// name each file after its seed.
type resultSet map[string]map[string]result

func readResultSet(dir string) (resultSet, error) {
	set := resultSet{}
	files, err := filepath.Glob(filepath.Join(dir, "*", "*"))
	if err != nil {
		return nil, err
	}
	for _, f := range files {
		r, err := readResult(f)
		if err != nil {
			return nil, err
		}
		wl := filepath.Base(filepath.Dir(f))
		if set[wl] == nil {
			set[wl] = map[string]result{}
		}
		set[wl][filepath.Base(f)] = r
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no results (want %s/<workload>/<run>)", dir, dir)
	}
	return set, nil
}

// readResult reads the result object from the last non-empty line of a
// run's output.
func readResult(path string) (result, error) {
	f, err := os.Open(path)
	if err != nil {
		return result{}, err
	}
	defer f.Close()
	var last string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return result{}, fmt.Errorf("%s: %w", path, err)
	}
	var r result
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return result{}, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, nil
}

// verdict is the judgement of one (metric, workload) pair.
type verdict struct {
	pairs, wins           int
	pMed, pQ1, pQ3        float64
	cMed, cQ1, cQ3        float64
	worse, spread, bound  float64
	allBetter, allWorse   bool
	verdict, better, unit string
}

// judge applies the rule for claiming a gain and the rule for no
// regression to paired runs (parent[i] pairs with change[i]):
//
//   - improved: the change wins at least 9 of 10 pairs (ties count for
//     neither side), its median is better, and the medians differ by more
//     than the parent's interquartile spread;
//   - otherwise, when the parent's spread is wider than the bound the
//     metric is unresolved, unless every change run reads better (no
//     worse) or every one reads worse by more than the bound (regressed);
//   - otherwise regressed when the change's median is worse than the
//     parent's by more than the bound, else no worse.
func judge(parent, change []float64, better string, bound float64) verdict {
	v := verdict{pairs: len(parent), bound: bound, better: better}
	sign := 1.0 // positive when the change is better
	if better == "lower" {
		sign = -1
	}
	for i := range parent {
		if d := sign * (change[i] - parent[i]); d > 0 {
			v.wins++
		}
	}
	v.pMed, v.cMed = median(parent), median(change)
	v.pQ1, v.pQ3 = quartiles(parent)
	v.cQ1, v.cQ3 = quartiles(change)
	base := math.Abs(v.pMed)
	v.worse = -sign*(v.cMed-v.pMed)/base + 0 // + 0 turns -0 into 0
	v.spread = (v.pQ3 - v.pQ1) / base
	pSorted, cSorted := sorted(parent), sorted(change)
	pBest, pWorst := pSorted[len(pSorted)-1], pSorted[0]
	cBest, cWorst := cSorted[len(cSorted)-1], cSorted[0]
	if sign < 0 {
		pBest, pWorst = pWorst, pBest
		cBest, cWorst = cWorst, cBest
	}
	v.allBetter = sign*(cWorst-pBest) > 0
	v.allWorse = sign*(pWorst-cBest) > 0
	switch {
	case v.wins*10 >= v.pairs*9 && v.worse < 0 && math.Abs(v.cMed-v.pMed) > v.pQ3-v.pQ1:
		v.verdict = "improved"
	case v.spread > bound && v.allBetter:
		v.verdict = "no worse"
	case v.spread > bound && v.allWorse && v.worse > bound:
		v.verdict = "regressed"
	case v.spread > bound:
		v.verdict = "unresolved"
	case v.worse > bound:
		v.verdict = "regressed"
	default:
		v.verdict = "no worse"
	}
	return v
}

// compareMain judges a change's result set against its parent's for
// every (end-to-end metric, workload) pair BENCHMARK.json defines. It
// exits 1 when any pair regressed.
//
//	dcnrbench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR
func compareMain(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "BENCHMARK.json", "benchmark definition with the end-to-end bounds")
	if err := fs.Parse(args); err != nil || fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: dcnrbench compare [-spec BENCHMARK.json] PARENT_DIR CHANGE_DIR")
		return 2
	}
	rows, err := compareSets(*specPath, fs.Arg(0), fs.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "dcnrbench compare:", err)
		return 2
	}
	regressed := false
	fmt.Fprintf(w, "%-12s %-9s %5s  %-34s %-34s %9s %6s %8s %6s  %s\n",
		"metric", "workload", "pairs", "parent median [q1, q3]", "change median [q1, q3]",
		"worse", "wins", "spread", "bound", "verdict")
	for _, r := range rows {
		v := r.v
		fmt.Fprintf(w, "%-12s %-9s %5d  %-34s %-34s %+8.2f%% %3d/%-2d %7.2f%% %5.0f%%  %s\n",
			r.metric, r.workload, v.pairs,
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.pMed, v.pQ1, v.pQ3, v.unit),
			fmt.Sprintf("%.4g [%.4g, %.4g] %s", v.cMed, v.cQ1, v.cQ3, v.unit),
			100*v.worse, v.wins, v.pairs, 100*v.spread, 100*v.bound, v.verdict)
		regressed = regressed || v.verdict == "regressed"
	}
	fmt.Fprintln(w, "worse: change median vs parent median, as a share of the parent median (positive is worse; better is \"lower\" or \"higher\" per BENCHMARK.json)")
	fmt.Fprintln(w, "spread: parent interquartile range as a share of the parent median; wins: pairs where the change reads better")
	if regressed {
		return 1
	}
	return 0
}

type compareRow struct {
	metric, workload string
	v                verdict
}

func compareSets(specPath, parentDir, changeDir string) ([]compareRow, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, err
	}
	var spec benchSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	parent, err := readResultSet(parentDir)
	if err != nil {
		return nil, err
	}
	change, err := readResultSet(changeDir)
	if err != nil {
		return nil, err
	}
	var rows []compareRow
	for _, wl := range keys(parent) {
		var runs []string
		for run := range parent[wl] {
			if _, ok := change[wl][run]; ok {
				runs = append(runs, run)
			}
		}
		sort.Strings(runs)
		if len(runs) == 0 {
			return nil, fmt.Errorf("workload %s: no run in both sets", wl)
		}
		for _, m := range spec.EndToEnd {
			var p, c []float64
			for _, run := range runs {
				pm, ok1 := parent[wl][run].Metrics[m.Name]
				cm, ok2 := change[wl][run].Metrics[m.Name]
				if !ok1 || !ok2 {
					return nil, fmt.Errorf("workload %s run %s: metric %s missing", wl, run, m.Name)
				}
				p, c = append(p, pm.Value), append(c, cm.Value)
			}
			v := judge(p, c, m.Better, m.Bound)
			v.unit = m.Unit
			rows = append(rows, compareRow{m.Name, wl, v})
		}
	}
	return rows, nil
}
