package main

import (
	"fmt"
	"os"
	"time"

	"crophe/internal/bench"
)

// tracedRun is the --trace 1 run: an untraced loop and a traced loop of
// half the budget each (their per-op times give the tracing overhead),
// then the layer probes, all recorded into one tracer. It fills vals
// with every per-layer metric and writes the spans as a Chrome trace.
func tracedRun(st State, seed int64, budget time.Duration, vals map[string]float64, tracePath string) ([]*Phase, error) {
	phA, err := st.Loop(nil, budget/2)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	// The memo counters then count the traced loop (its last pass, for
	// serve-mix, which resets the memo per pass) and the probes only.
	bench.ResetScheduleMemo()
	rt0 := sampleRuntime()
	phB, err := st.Loop(tr, budget/2)
	if err != nil {
		return nil, err
	}
	rt1 := sampleRuntime()

	vals["harness.trace_overhead_frac"] = phA.Rate/phB.Rate - 1
	vals["runtime.gc_cpu_frac"] = (rt1.gcCPU - rt0.gcCPU) / (rt1.totalCPU - rt0.totalCPU)
	vals["runtime.alloc_mb_per_op"] = float64(rt1.allocBytes-rt0.allocBytes) / float64(phB.Ops) / (1 << 20)

	// Coverage of the traced loop: the share of the callers' time spent
	// inside layer calls (everything but the harness's own root spans).
	loop := tr.stats(func(s Span) string { return s.Layer })
	busy := phB.Wall.Seconds() * float64(phB.Lanes)
	var inLayers float64
	for layer, s := range loop {
		if layer != "harness" {
			inLayers += s.SelfSum
		}
	}
	vals["harness.self_time_coverage"] = inLayers / busy
	var core float64
	for _, layer := range []string{"sched", "sim", "workload"} {
		if s := loop[layer]; s != nil {
			core += s.SelfSum
		}
	}
	vals["harness.sched_sim_workload_share"] = core / busy

	if err := modelProbe(tr); err != nil {
		return nil, err
	}
	graphProbe(tr, vals)
	// serve-mix's probe reuses its server; the others start one.
	var h *serveHarness
	if ss, ok := st.(*serveState); ok {
		h = ss.h
	}
	if err := serveProbe(tr, h, seed, vals); err != nil {
		return nil, err
	}
	if err := ckksProbe(tr, vals); err != nil {
		return nil, err
	}
	memo := bench.ScheduleMemoStats()
	hits, misses := float64(memo.Hits), float64(memo.Misses)
	vals["bench.memo_misses"] = misses
	vals["bench.memo_hit_ratio"] = hits / (hits + misses)

	all := tr.stats(func(s Span) string { return s.Layer + "/" + s.Name })
	if err := layerMetrics(all, vals); err != nil {
		return nil, err
	}
	serveLatency(tr, vals)
	if err := tr.writeChrome(tracePath); err != nil {
		return nil, err
	}
	fmt.Fprintf(os.Stderr, "perfbench: chrome trace written to %s\n", tracePath)
	return []*Phase{phA, phB}, nil
}

// layerMetrics derives the workload, sched and sim metrics from the
// spans of the Design.Evaluate calls (the loop's and the model probe's),
// the workload builds inside them and the simulations after them.
func layerMetrics(all map[string]*LayerStat, vals map[string]float64) error {
	ev, build, sm := all["sched/Design.Evaluate"], all["workload/build"], all["sim/SimulateSchedule"]
	if ev == nil || build == nil || sm == nil {
		return fmt.Errorf("traced run recorded no sched/workload/sim spans")
	}
	vals["workload.build_ms"] = median(build.Self) * 1e3
	vals["workload.builds"] = float64(build.Calls) / float64(ev.Calls)

	cand := ev.Args["candidates"]
	vals["sched.self_ms"] = median(ev.Self) * 1e3
	vals["sched.candidates"] = cand / float64(ev.Calls)
	vals["sched.ns_per_candidate"] = ev.SelfSum / cand * 1e9
	vals["sched.allocs_per_candidate"] = ev.Mallocs / cand
	vals["sched.alloc_bytes_per_candidate"] = ev.AllocBytes / cand
	vals["sched.seg_cache_hit_ratio"] = ev.Args["seg_hits"] / (ev.Args["seg_hits"] + ev.Args["seg_misses"])

	groups := sm.Args["groups"]
	vals["sim.self_ms"] = median(sm.Self) * 1e3
	vals["sim.groups"] = groups / float64(sm.Calls)
	vals["sim.ns_per_group"] = sm.SelfSum / groups * 1e9
	vals["sim.alloc_bytes_per_group"] = sm.AllocBytes / groups
	return nil
}

// serveLatency splits the schedule round trips (the loop's and the
// probe's) into memo hits (warm) and misses (cold).
func serveLatency(tr *Tracer, vals map[string]float64) {
	var warm, cold []float64
	tr.mu.Lock()
	for _, s := range tr.spans {
		if s.Layer != "serve" || s.Name != kindSchedule || s.Args == nil {
			continue
		}
		if s.Args["cached"] == 1 {
			warm = append(warm, s.Dur().Seconds())
		} else {
			cold = append(cold, s.Dur().Seconds())
		}
	}
	tr.mu.Unlock()
	vals["serve.warm_p50_ms"] = median(warm) * 1e3
	vals["serve.cold_p50_ms"] = median(cold) * 1e3
}
