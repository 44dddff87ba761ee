package main

// declared is one metric BENCHMARK.json lists, with its unit.
type declared struct{ name, unit string }

// endToEnd are the metrics a user of the program sees, measured with
// tracing off. Every workload reports each of them; what an "op" is
// depends on the workload (see opMeaning).
var endToEnd = []declared{
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"op_ms", "ms"},
	{"work_per_s", "1/s"},
}

// opMeaning says, per workload, what op_ms and work_per_s measure; it is
// printed in the run header.
var opMeaning = map[string]map[string]string{
	"intradc":  {"op_ms": "baseline campaign wall / runs, median over campaigns", "work_per_s": "faults simulated per second, median over campaigns"},
	"noremed":  {"op_ms": "no-remediation campaign wall / runs, median over campaigns", "work_per_s": "faults simulated per second, median over campaigns"},
	"backbone": {"op_ms": "pipeline wall per 1000 round-tripped notices, median over seeds", "work_per_s": "notices round-tripped per second, median over seeds"},
	"serve":    {"op_ms": "read latency p50, median over epochs", "work_per_s": "reads per second, median over epochs"},
}

// perLayer are the traced run's metrics. Every workload reports each of
// them; a layer the workload never calls reads zero.
var perLayer = []declared{
	{"runtime.gc_cpu_ratio", "ratio"},
	{"obs.trace_overhead_ratio", "ratio"},
	{"obs.span_coverage_ratio", "ratio"},

	{"bench.self_ms", "ms"},
	{"fleet.self_ms", "ms"},
	{"faults.self_ms", "ms"},
	{"core.self_ms", "ms"},
	{"sev.self_ms", "ms"},
	{"backbone.self_ms", "ms"},
	{"tickets.self_ms", "ms"},
	{"serve.self_ms", "ms"},

	{"faults.run_ms", "ms"},
	{"faults.ns_per_event", "ns"},
	{"faults.allocs_per_event", "count"},
	{"faults.bytes_per_event", "B"},
	{"des.events", "count"},
	{"faults.faults", "count"},
	{"faults.incidents", "count"},
	{"remediation.repaired_ratio", "ratio"},
	{"core.intra_ms", "ms"},
	{"sev.write_json_ms", "ms"},
	{"sweep.pool_busy_ratio", "ratio"},

	{"backbone.build_ms", "ms"},
	{"backbone.simulate_ms", "ms"},
	{"tickets.generate_ms", "ms"},
	{"tickets.format_ms", "ms"},
	{"tickets.parse_ms", "ms"},
	{"tickets.ingest_ms", "ms"},
	{"tickets.downtimes_ms", "ms"},
	{"tickets.write_all_ms", "ms"},
	{"tickets.format_allocs_per_notice", "count"},
	{"tickets.parse_allocs_per_notice", "count"},
	{"tickets.parse_bytes_per_notice", "B"},
	{"tickets.notices", "count"},
	{"core.inter_ms", "ms"},

	{"serve.hit_ratio", "ratio"},
	{"serve.hit_p50_us", "us"},
	{"serve.miss_p50_us", "us"},
	{"serve.miss_p99_us", "us"},
	{"serve.read_p99_ms", "ms"},
	{"serve.ingest_p50_ms", "ms"},
	{"serve.ingest_p90_ms", "ms"},
	{"sev.query_p50_us", "us"},
	{"sev.query_p99_us", "us"},
	{"sev.candidates_per_query", "count"},
	{"sev.indexed_ratio", "ratio"},
	{"sev.add_all_us", "us"},
	{"sev.load_ms", "ms"},
}

var metricUnits = func() map[string]string {
	m := make(map[string]string)
	for _, d := range append(append([]declared(nil), endToEnd...), perLayer...) {
		m[d.name] = d.unit
	}
	return m
}()
