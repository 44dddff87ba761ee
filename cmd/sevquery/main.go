// Command sevquery runs aggregate queries over a SEV dataset file produced
// by dcsim — the CLI stand-in for the SQL queries the study ran against its
// SEV database (§4.2).
//
// Usage:
//
//	sevquery -data sevs.json [-where 'year=2017&device=RSW'] \
//	         [-group year|device|severity|cause] [-show N]
//
// -where takes the filter dcnrd's query endpoints accept after '?': the
// keys year, device, severity, design, cause, since and until, joined by
// '&'. -group prints counts per group instead of reports.
package main

import (
	"flag"
	"fmt"
	"net/url"
	"os"

	"dcnr"
	"dcnr/internal/report"
	"dcnr/internal/sev"
)

func main() {
	var (
		data  = flag.String("data", "sevs.json", "SEV dataset file (from dcsim)")
		where = flag.String("where", "", "filter, as dcnrd's query string: year, device, severity, design, cause, since, until (e.g. 'year=2017&device=RSW')")
		group = flag.String("group", "", "group counts by: year, device, severity, cause")
		show  = flag.Int("show", 10, "max reports to print when not grouping")
	)
	flag.Parse()
	if err := run(*data, *where, *group, *show); err != nil {
		fmt.Fprintln(os.Stderr, "sevquery:", err)
		os.Exit(1)
	}
}

func run(path, where, group string, show int) error {
	vals, err := url.ParseQuery(where)
	if err != nil {
		return fmt.Errorf("bad -where: %w", err)
	}
	filter, err := sev.ParseFilter(vals)
	if err != nil {
		return fmt.Errorf("bad -where: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	store := dcnr.NewSEVStore()
	if err := store.ReadJSON(f); err != nil {
		return err
	}

	q := store.Query().Where(filter)
	switch group {
	case "":
		return printReports(q.Reports(), show)
	case "year":
		t := &report.Table{Headers: []string{"Year", "SEVs"}}
		byYear := q.CountByYear()
		for _, y := range report.SortedInts(byYear) {
			t.AddRow(fmt.Sprint(y), fmt.Sprint(byYear[y]))
		}
		return t.Render(os.Stdout)
	case "device":
		t := &report.Table{Headers: []string{"Device type", "SEVs"}}
		byType := q.CountByDeviceType()
		for _, dt := range dcnr.IntraDCTypes {
			if n := byType[dt]; n > 0 {
				t.AddRow(dt.String(), fmt.Sprint(n))
			}
		}
		return t.Render(os.Stdout)
	case "severity":
		t := &report.Table{Headers: []string{"Level", "SEVs"}}
		bySev := q.CountBySeverity()
		for _, s := range dcnr.Severities {
			t.AddRow(s.String(), fmt.Sprint(bySev[s]))
		}
		return t.Render(os.Stdout)
	case "cause":
		t := &report.Table{Headers: []string{"Root cause", "SEVs"}}
		byCause := q.CountByRootCause()
		for _, c := range dcnr.RootCauses {
			t.AddRow(c.String(), fmt.Sprint(byCause[c]))
		}
		return t.Render(os.Stdout)
	default:
		return fmt.Errorf("unknown -group %q", group)
	}
}

func printReports(reports []dcnr.SEVReport, show int) error {
	fmt.Printf("%d matching SEVs\n\n", len(reports))
	t := &report.Table{Headers: []string{"ID", "Level", "Year", "Device", "Resolution (h)", "Title"}}
	for i, r := range reports {
		if i >= show {
			t.AddRow("...", "", "", "", "", fmt.Sprintf("(%d more)", len(reports)-show))
			break
		}
		t.AddRow(fmt.Sprint(r.ID), r.Severity.String(), fmt.Sprint(r.Year), r.Device,
			report.F(r.Resolution), r.Title)
	}
	return t.Render(os.Stdout)
}
