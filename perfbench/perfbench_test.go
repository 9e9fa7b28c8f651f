package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
)

// A tiny-length run of each workload, untraced and traced, reports every
// declared metric with its unit and checks its outputs.
func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			rec, err := run(w.Name, 1, 1, trace)
			if err != nil {
				t.Fatalf("%s trace=%t: %v", w.Name, trace, err)
			}
			specs := endToEnd
			if trace {
				specs = perLayer
			}
			if len(rec.Result.Metrics) != len(specs) {
				t.Errorf("%s trace=%t: %d metrics, want %d", w.Name, trace, len(rec.Result.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := rec.Result.Metrics[s.Name]
				if !ok || m.Unit != s.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s trace=%t: metric %s = %+v, want a finite value in %s", w.Name, trace, s.Name, m, s.Unit)
				}
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted < 1 {
				t.Errorf("%s trace=%t: result %+v, want correct with no failures", w.Name, trace, rec.Result)
			}
		}
	}
}

// The same seed gives the same op sequence and the same outputs; another
// seed gives another sequence.
func TestSeedDeterminesOpsAndOutputs(t *testing.T) {
	a, err := setupPaperEval(7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := setupPaperEval(7)
	if err != nil {
		t.Fatal(err)
	}
	c, err := setupPaperEval(8)
	if err != nil {
		t.Fatal(err)
	}
	pa, pb, pc := a.(*paperState).order, b.(*paperState).order, c.(*paperState).order
	differs := false
	for i := range pa {
		if pa[i].ID != pb[i].ID {
			t.Fatalf("paper-eval seed 7: op %d is %s then %s", i, pa[i].ID, pb[i].ID)
		}
		differs = differs || pa[i].ID != pc[i].ID
	}
	if !differs {
		t.Error("paper-eval: seeds 7 and 8 give the same order")
	}
	for _, p := range pa[:3] {
		o1, err1 := evaluatePoint(nil, p, -1)
		o2, err2 := evaluatePoint(nil, p, -1)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if goldenOfPoint(o1) != goldenOfPoint(o2) {
			t.Errorf("%s: outputs differ between evaluations", p.ID)
		}
	}

	g1, g2, g3 := newReqGen(7), newReqGen(7), newReqGen(8)
	differs = false
	for i := 0; i < 2000; i++ {
		r1, r2, r3 := g1.next(), g2.next(), g3.next()
		if r1 != r2 {
			t.Fatalf("serve-mix seed 7: request %d is %s then %s", i, r1.Key, r2.Key)
		}
		differs = differs || r1 != r3
	}
	if !differs {
		t.Error("serve-mix: seeds 7 and 8 give the same sequence")
	}

	errs := make([]float64, 2)
	for i := range errs {
		st, err := newCKKSState(7, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Loop(nil, 0); err != nil {
			t.Fatal(err)
		}
		errs[i] = st.maxErr
	}
	if errs[0] != errs[1] || errs[0] == 0 {
		t.Errorf("ckks-boot seed 7: decrypt errors %g and %g, want equal and nonzero", errs[0], errs[1])
	}
}

// Perturbing one golden value by one ulp makes exactly that op fail, so
// failed_frac rises above zero.
func TestPerturbedGoldenRaisesFailedFrac(t *testing.T) {
	st, err := setupPaperEval(1)
	if err != nil {
		t.Fatal(err)
	}
	ps := st.(*paperState)
	id := ps.order[0].ID
	g := ps.golden[id]
	g.SimCycles = math.Nextafter(g.SimCycles, math.Inf(1))
	ps.golden[id] = g
	ph, err := ps.Loop(nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if ph.Failed != 1 {
		t.Fatalf("failed %d of %d ops, want exactly the perturbed one", ph.Failed, ph.Ops)
	}

	cs, err := newCKKSState(1, 1e-12)
	if err != nil {
		t.Fatal(err)
	}
	if ph, err := cs.Loop(nil, 0); err != nil || ph.Failed != ph.Ops {
		t.Fatalf("ckks-boot with a 1e-12 error floor: %+v, %v; want every op failed", ph, err)
	}
}

// BENCHMARK.json lists exactly the workloads and metrics the benchmark
// reports, with the same units, directions and bounds.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metric `json:"end_to_end"`
		PerLayer   []metric `json:"per_layer"`
		RunSeconds int      `json:"run_seconds"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, benchmark has %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	check := func(kind string, got []metric, want []MetricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the registry", kind, len(got), len(want))
		}
		for i, s := range want {
			m := got[i]
			if m.Name != s.Name || m.Unit != s.Unit || m.Better != s.Better || (m.Bound != nil) != bounded ||
				(bounded && *m.Bound != s.Bound) {
				t.Errorf("%s %d: BENCHMARK.json has %+v, registry has %+v", kind, i, m, s)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
}

// Timing metrics are refused across host fingerprints; counts compare.
func TestCompareRefusesTimingAcrossHosts(t *testing.T) {
	a := Record{Host: Host{CPUModel: "A"}, Result: Result{Metrics: map[string]Metric{
		"latency_p50_ms": {1, "ms"}, "sched.candidates": {10, "count"},
	}}}
	b := a
	b.Host.CPUModel = "B"
	lines, refused := compareRecords(a, b)
	if !refused || len(lines) != 2 {
		t.Fatalf("different hosts: refused=%t lines=%q", refused, lines)
	}
	if _, refused := compareRecords(a, a); refused {
		t.Error("same host: timing refused")
	}
}

func TestTailLatency(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tailLatency(xs); p != 99 || v != 990 { // p99.9 is not a rung
		t.Errorf("1000 samples: tail %g at p%g, want 990 at p99", v, p)
	}
	if _, p := tailLatency(xs[:40]); p != 75 {
		t.Errorf("40 samples: p%g, want p75", p)
	}
	if _, p := tailLatency(xs[:5]); p != 50 {
		t.Errorf("5 samples: p%g, want p50", p)
	}
}
