package main

import "fmt"

// MetricSpec declares one reported metric. For per-layer metrics, Moves
// names the end-to-end metric (and workload) a change to the layer
// should move, and Unchanged the workload where the prediction is no
// change. BENCHMARK.json lists the same names, units and directions;
// TestBenchmarkJSONMatchesRegistry keeps the two in step.
type MetricSpec struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
	Layer              string
	Moves, Unchanged   string
}

// endToEnd metrics are measured with tracing off and reported by every
// workload. An op is a design point (paper-eval), a request (serve-mix)
// or a bootstrap (ckks-boot). The timing bounds are wide because the
// 2-vCPU Xeon VM the benchmark was tuned on drifts by 10-25% in speed
// from run to run (the same seed, back to back), which no in-run
// median removes.
var endToEnd = []MetricSpec{
	{Name: "throughput_ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_frac", Unit: "ratio", Better: "higher", Bound: 0.01},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.2},
}

// perLayer metrics come from the traced run. Each aggregates the spans
// the benchmark recorded around its calls into the layer: the
// workload's own calls plus the fixed layer probes every traced run
// ends with, so a layer the workload never calls is still measured
// (from the probes alone).
var perLayer = []MetricSpec{
	{"workload.build_ms", "ms", "lower", 0, "workload", "paper-eval throughput", "ckks-boot"},
	{"workload.builds", "count", "lower", 0, "workload", "paper-eval throughput", "ckks-boot"},
	{"graph.decompose_ms", "ms", "lower", 0, "graph", "paper-eval throughput", "ckks-boot"},
	{"graph.fingerprint_us_per_node", "us", "lower", 0, "graph", "paper-eval throughput", "ckks-boot"},
	{"graph.topological_us_per_node", "us", "lower", 0, "graph", "paper-eval throughput", "ckks-boot"},
	{"sched.self_ms", "ms", "lower", 0, "sched", "paper-eval throughput, serve-mix latency_tail_ms", "serve-mix latency_p50_ms"},
	{"sched.candidates", "count", "lower", 0, "sched", "paper-eval throughput, serve-mix latency_tail_ms", "serve-mix latency_p50_ms"},
	{"sched.ns_per_candidate", "ns", "lower", 0, "sched", "paper-eval throughput, serve-mix latency_tail_ms", "serve-mix latency_p50_ms"},
	{"sched.allocs_per_candidate", "count", "lower", 0, "sched", "paper-eval throughput, serve-mix latency_tail_ms", "serve-mix latency_p50_ms"},
	{"sched.alloc_bytes_per_candidate", "B", "lower", 0, "sched", "paper-eval throughput, serve-mix latency_tail_ms", "serve-mix latency_p50_ms"},
	{"sched.seg_cache_hit_ratio", "ratio", "higher", 0, "sched", "paper-eval throughput, serve-mix latency_tail_ms", "serve-mix latency_p50_ms"},
	{"sim.self_ms", "ms", "lower", 0, "sim", "serve-mix throughput and latency_tail_ms", "paper-eval"},
	{"sim.groups", "count", "lower", 0, "sim", "serve-mix throughput and latency_tail_ms", "paper-eval"},
	{"sim.ns_per_group", "ns", "lower", 0, "sim", "serve-mix throughput and latency_tail_ms", "paper-eval"},
	{"sim.alloc_bytes_per_group", "B", "lower", 0, "sim", "serve-mix throughput and latency_tail_ms", "paper-eval"},
	{"fault.degraded_ms", "ms", "lower", 0, "fault", "serve-mix latency_tail_ms", "paper-eval"},
	{"bench.memo_hit_ratio", "ratio", "higher", 0, "bench", "serve-mix latency_p50_ms", "paper-eval"},
	{"bench.memo_misses", "count", "lower", 0, "bench", "serve-mix latency_p50_ms", "paper-eval"},
	{"bench.memo_hit_us", "us", "lower", 0, "bench", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.warm_p50_ms", "ms", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.cold_p50_ms", "ms", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.schedule.overhead_ms", "ms", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.simulate.overhead_ms", "ms", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.simulate-degraded.overhead_ms", "ms", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.shed", "count", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"serve.partials", "count", "lower", 0, "serve", "serve-mix latency_p50_ms", "paper-eval"},
	{"runtime.gc_cpu_frac", "frac", "lower", 0, "runtime", "paper-eval throughput, peak_rss_mb", ""},
	{"runtime.alloc_mb_per_op", "MB", "lower", 0, "runtime", "paper-eval throughput, peak_rss_mb", ""},
	{"ckks.encode_us", "us", "lower", 0, "ckks", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ckks.keyswitch_us", "us", "lower", 0, "ckks", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ckks.rotate_hoisted_us_per_rot", "us", "lower", 0, "ckks", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ckks.mulrelin_us", "us", "lower", 0, "ckks", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ckks.rescale_us", "us", "lower", 0, "ckks", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ntt.forward_us_per_limb", "us", "lower", 0, "ntt", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ntt.inverse_us_per_limb", "us", "lower", 0, "ntt", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"ntt.integrity_overhead_frac", "frac", "lower", 0, "ntt", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"rns.convert_columns_us", "us", "lower", 0, "rns", "ckks-boot throughput", "paper-eval, serve-mix"},
	{"harness.trace_overhead_frac", "frac", "lower", 0, "harness", "", ""},
	{"harness.self_time_coverage", "frac", "higher", 0, "harness", "", ""},
	{"harness.sched_sim_workload_share", "frac", "higher", 0, "harness", "", ""},
}

// metricSet fills a metric map from values keyed by name, failing on
// any name the spec list declares but the run did not produce.
func metricSet(specs []MetricSpec, vals map[string]float64) (map[string]Metric, error) {
	out := make(map[string]Metric, len(specs))
	for _, s := range specs {
		v, ok := vals[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric not measured: %s", s.Name)
		}
		out[s.Name] = Metric{Value: v, Unit: s.Unit}
	}
	return out, nil
}
