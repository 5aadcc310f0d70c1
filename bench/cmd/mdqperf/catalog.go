package main

import (
	"encoding/json"

	"mdq/bench/workload"
)

// metricDef is one entry of the metric catalogue. BENCHMARK.json is
// generated from this file (mdqperf -manifest) and a test keeps the
// committed copy equal to it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// runSeconds is the measured window of one run, BENCHMARK.json's
// run_seconds and the default of -seconds.
const runSeconds = 20

// endToEnd are the metrics a client of POST /query sees, each with
// the share of the parent's median it may worsen by. All are measured
// untraced, over the measured window only. Every bound is the widest
// the driver allows: ten runs on the 2-vCPU reference box spread by
// 3–7 % of the median in a quiet quarter of an hour and by 12–23 % in
// a noisy one (bench/README.md, "Measured spread"), and a bound must
// stay above the spread of the runs it is checked with.
var endToEnd = []metricDef{
	{Name: "throughput_rps", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "first_byte_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_query", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer are the metrics of single layers, printed by a traced run.
// Times are per-request means of span self time unless the name says
// otherwise; names ending in _share are ratios of counts.
var perLayer = []metricDef{
	{Name: "cq.parse_template_us", Unit: "us", Better: "lower"},
	{Name: "cq.bind_resolve_us", Unit: "us", Better: "lower"},
	{Name: "cq.canonical_key_us", Unit: "us", Better: "lower"},

	{Name: "serve.admission_wait_us", Unit: "us", Better: "lower"},
	{Name: "serve.coalesce_self_us", Unit: "us", Better: "lower"},
	{Name: "serve.coalesced_share", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed_share", Unit: "ratio", Better: "lower"},

	{Name: "opt.optimize_template_us", Unit: "us", Better: "lower"},
	{Name: "opt.template_hit_us", Unit: "us", Better: "lower"},
	{Name: "opt.search_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.search.states", Unit: "count", Better: "lower"},
	{Name: "opt.search.leaves", Unit: "count", Better: "lower"},
	{Name: "opt.search.fetch_vectors", Unit: "count", Better: "lower"},
	{Name: "opt.search.allocs", Unit: "count", Better: "lower"},
	{Name: "opt.search.bytes", Unit: "B", Better: "lower"},
	{Name: "opt.plan_cache.template_share", Unit: "ratio", Better: "higher"},
	{Name: "opt.plan_cache.revalidated_share", Unit: "ratio", Better: "lower"},
	{Name: "opt.plan_cache.miss_share", Unit: "ratio", Better: "lower"},

	{Name: "abind.enumerate_us", Unit: "us", Better: "lower"},
	{Name: "card.annotate_us", Unit: "us", Better: "lower"},
	{Name: "fetch.assign_us", Unit: "us", Better: "lower"},
	{Name: "plan.describe_us", Unit: "us", Better: "lower"},

	{Name: "exec.run_us", Unit: "us", Better: "lower"},
	{Name: "exec.self_us", Unit: "us", Better: "lower"},
	{Name: "exec.first_row_us", Unit: "us", Better: "lower"},
	{Name: "exec.rows_per_run", Unit: "count", Better: "higher"},
	{Name: "exec.allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "exec.stream_join.merge_scan_us", Unit: "us", Better: "lower"},
	{Name: "exec.stream_join.nested_loop_us", Unit: "us", Better: "lower"},

	{Name: "service.invoke_us", Unit: "us", Better: "lower"},
	{Name: "service.calls_per_query", Unit: "count", Better: "lower"},
	{Name: "service.epoch_bumps_per_s", Unit: "1/s", Better: "lower"},

	{Name: "rescache.get_ns", Unit: "ns", Better: "lower"},
	{Name: "rescache.put_ns", Unit: "ns", Better: "lower"},
	{Name: "rescache.hit_share", Unit: "ratio", Better: "higher"},
	{Name: "rescache.invalidates_per_query", Unit: "count", Better: "lower"},
	{Name: "rescache.entries", Unit: "count", Better: "lower"},
	{Name: "rescache.bytes", Unit: "B", Better: "lower"},

	{Name: "dist.optimize_template_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.execute_plan_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.coordinator_self_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.partition_us", Unit: "us", Better: "lower"},
	{Name: "dist.fragments_per_query", Unit: "count", Better: "lower"},
	{Name: "dist.transport.search_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.transport.search_per_query", Unit: "count", Better: "lower"},
	{Name: "dist.transport.sync_per_query", Unit: "count", Better: "lower"},
	{Name: "dist.transport.execute_fragment_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.wire_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.wire.tuples_per_query", Unit: "count", Better: "lower"},
	{Name: "dist.retries", Unit: "count", Better: "lower"},

	{Name: "http.decode_us", Unit: "us", Better: "lower"},
	{Name: "http.encode_us", Unit: "us", Better: "lower"},
	{Name: "http.response_bytes", Unit: "B", Better: "lower"},
	{Name: "http.overhead_us", Unit: "us", Better: "lower"},
	{Name: "server.optimize_ms", Unit: "ms", Better: "lower"},
	{Name: "server.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "server.first_row_ms", Unit: "ms", Better: "lower"},

	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.span_coverage_share", Unit: "ratio", Better: "higher"},

	{Name: "proc.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.cpu_ms_per_query.coordinator", Unit: "ms", Better: "lower"},
	{Name: "proc.cpu_ms_per_query.workers", Unit: "ms", Better: "lower"},

	{Name: "client.latency_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.failed_share", Unit: "ratio", Better: "lower"},
}

// manifest renders BENCHMARK.json.
func manifest() ([]byte, error) {
	type workloadDef struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	m := struct {
		Command    []string      `json:"command"`
		Paths      []string      `json:"paths"`
		RunSeconds int           `json:"run_seconds"`
		Workloads  []workloadDef `json:"workloads"`
		EndToEnd   []metricDef   `json:"end_to_end"`
		PerLayer   []metricDef   `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench/cmd/mdqperf"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer, // no bounds: Bound is zero and left out
	}
	for _, s := range workload.Specs {
		m.Workloads = append(m.Workloads, workloadDef{Name: s.Name, Why: s.Why})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// lookupMetric finds a metric in either catalogue.
func lookupMetric(name string) (metricDef, bool) {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d, true
			}
		}
	}
	return metricDef{}, false
}
