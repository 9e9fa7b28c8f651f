package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"crophe/internal/arch"
	"crophe/internal/baseline"
	"crophe/internal/sched"
	"crophe/internal/sim"
	"crophe/internal/workload"
)

// paperEval replays the paper's design-space evaluation: every Figure 9
// design point and every Figure 10 SRAM-sweep point, cold (a fresh
// scheduler per point, no schedule memo), each followed by a cycle
// simulation of the winning schedule. One closed-loop caller.
var paperEval = Workload{
	Name:  "paper-eval",
	Why:   "what a reproducer runs: cold sched search (~90% of time) then sim on all Fig 9 and Fig 10 points; small SRAM sizes exercise spill paths",
	Setup: setupPaperEval,
}

// point is one evaluated design point.
type point struct {
	ID       string
	Fig      int
	Pairing  string // baseline accelerator name
	Workload string
	Role     string // "base", "hwmad", "crophe" or "crophe-p"
	Design   sched.Design
	Factory  sched.WorkloadFactory
}

// fig10Sizes are the Figure 10 SRAM capacities (MB) per pairing index.
var fig10Sizes = map[int][]float64{1: {512, 256, 128, 64}, 2: {180, 128, 90, 45}}

// paperPoints lists the design points in canonical (paper) order.
func paperPoints() []point {
	roles := []string{"base", "hwmad", "crophe", "crophe-p"}
	var pts []point
	pairings := baseline.Pairings()
	for _, p := range pairings {
		fs := p.WorkloadFactories()
		for _, wn := range baseline.WorkloadNames() {
			for i, d := range p.Designs() {
				pts = append(pts, point{
					ID:  fmt.Sprintf("fig9/%s/%s/%s", p.Baseline.Name, wn, d.Name),
					Fig: 9, Pairing: p.Baseline.Name, Workload: wn, Role: roles[i],
					Design: d, Factory: fs[wn],
				})
			}
		}
	}
	for _, pi := range []int{1, 2} {
		p := pairings[pi]
		fs := p.WorkloadFactories()
		for _, wn := range baseline.WorkloadNames() {
			for _, mb := range fig10Sizes[pi] {
				base := p.Baseline.WithSRAM(mb)
				cro := p.CROPHE.WithSRAM(mb)
				ds := []struct {
					role string
					d    sched.Design
				}{
					{"base", sched.Design{Name: p.Baseline.Name + "+MAD", HW: base, Dataflow: sched.DataflowMAD}},
					{"crophe", sched.Design{Name: p.CROPHE.Name, HW: cro, Dataflow: sched.DataflowCROPHE, NTTDec: true, HybridRot: true}},
					{"crophe-p", sched.Design{Name: p.CROPHE.Name + "-p", HW: cro, Dataflow: sched.DataflowCROPHE, NTTDec: true, HybridRot: true, Clusters: 4}},
				}
				for _, d := range ds {
					pts = append(pts, point{
						ID:  fmt.Sprintf("fig10/%s/%s/%gMB/%s", p.Baseline.Name, wn, mb, d.d.Name),
						Fig: 10, Pairing: p.Baseline.Name, Workload: wn, Role: d.role,
						Design: d.d, Factory: fs[wn],
					})
				}
			}
		}
	}
	return pts
}

// publishedSpeedups are the paper's Figure 9 speedups over baseline+MAD
// (EXPERIMENTS.md), keyed by pairing/workload/role.
var publishedSpeedups = func() map[string]float64 {
	m := map[string]float64{}
	add := func(pairing, role string, v [4]float64) {
		for i, wn := range baseline.WorkloadNames() {
			m[pairing+"/"+wn+"/"+role] = v[i]
		}
	}
	add("BTS", "crophe", [4]float64{3.60, 3.21, 3.00, 3.38})
	add("ARK", "crophe", [4]float64{1.71, 2.97, 1.45, 1.53})
	add("ARK", "crophe-p", [4]float64{1.75, 4.86, 2.39, 2.39})
	add("SHARP", "crophe", [4]float64{1.55, 1.15, 1.36, 1.64})
	add("SHARP", "crophe-p", [4]float64{2.54, 1.89, 2.24, 2.70})
	return m
}()

type paperState struct {
	order   []point
	golden  map[string]pointGolden
	outputs map[string]pointTimes // golden-checked times of the last loop
}

func setupPaperEval(seed int64) (State, error) {
	g, err := loadPaperGolden()
	if err != nil {
		return nil, err
	}
	pts := paperPoints()
	for _, p := range pts {
		if _, ok := g[p.ID]; !ok {
			return nil, fmt.Errorf("no golden for %s", p.ID)
		}
	}
	r := rand.New(rand.NewSource(seed))
	r.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
	return &paperState{order: pts, golden: g}, nil
}

// pointOut is what one evaluated point produced.
type pointOut struct {
	Sched *sched.Schedule
	Sim   *sim.Result
}

// evaluatePoint runs Design.Evaluate (cold) and simulates the winner.
// With a tracer it records the sched, workload-build and sim spans
// under parent, with their heap deltas and search counters.
func evaluatePoint(tr *Tracer, p point, parent int) (out pointOut, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", p.ID, r)
		}
	}()
	var s0 sched.SearchStats
	if tr != nil {
		s0 = sched.Stats()
	}
	ev := tr.beginMem("sched", "Design.Evaluate", parent, 0)
	// Evaluate's last factory call builds the Min-KS workload whose name
	// it reports; the simulator reads only the schedule and that name.
	var last *workload.Workload
	factory := func(m workload.RotMode, r int) *workload.Workload {
		b := tr.beginMem("workload", "build", ev.id, 0)
		last = p.Factory(m, r)
		b.end()
		return last
	}
	s := p.Design.Evaluate(factory)
	ev.end()
	if tr != nil {
		s1 := sched.Stats()
		tr.setArgs(ev.id, map[string]float64{
			"candidates": float64(s1.Candidates - s0.Candidates),
			"seg_hits":   float64(s1.CacheHits - s0.CacheHits),
			"seg_misses": float64(s1.CacheMisses - s0.CacheMisses),
		})
	}
	sm := tr.beginMem("sim", "SimulateSchedule", parent, 0)
	res, err := sim.New(p.Design.HW).SimulateSchedule(last, s)
	sm.end()
	if err != nil {
		return out, fmt.Errorf("%s: simulate: %w", p.ID, err)
	}
	if tr != nil {
		groups := 0
		for _, seg := range s.Segments {
			groups += len(seg.Groups)
		}
		tr.setArgs(sm.id, map[string]float64{"groups": float64(groups)})
	}
	return pointOut{Sched: s, Sim: res}, nil
}

// pointTimes keeps the analytical and simulated times of a checked
// point for the accuracy figures.
type pointTimes struct{ Sched, Sim float64 }

// check compares a point's outputs with its golden values, bit for bit.
func (g pointGolden) check(o pointOut) error {
	got := goldenOfPoint(o)
	if got != g {
		return fmt.Errorf("got %+v, golden %+v", got, g)
	}
	return nil
}

func goldenOfPoint(o pointOut) pointGolden {
	t := o.Sched.Traffic
	return pointGolden{
		TimeSec: o.Sched.TimeSec, DRAM: t.DRAM, SRAM: t.SRAM, NoC: t.NoC, Transpose: t.Transpose,
		SimCycles: o.Sim.Cycles,
	}
}

// Loop runs whole passes over the shuffled points. A pass is started
// only if the previous pass's duration still fits in the budget (the
// first always runs), so every run measures the same set of points.
// Each point's time is its median over the passes; the rate is points
// per second of those medians, and the latency samples are the medians.
func (s *paperState) Loop(tr *Tracer, budget time.Duration) (*Phase, error) {
	ph := &Phase{Lanes: 1}
	s.outputs = map[string]pointTimes{}
	times := map[string][]float64{}
	start := time.Now()
	var lastPass time.Duration
	for ph.Ops == 0 || time.Since(start)+lastPass <= budget {
		passStart := time.Now()
		for _, p := range s.order {
			root := tr.begin("harness", p.ID, -1, 0)
			t0 := time.Now()
			o, err := evaluatePoint(tr, p, root)
			times[p.ID] = append(times[p.ID], time.Since(t0).Seconds())
			tr.end(root)
			ph.Ops++
			if err != nil {
				ph.fail("%v", err)
				continue
			}
			if err := s.golden[p.ID].check(o); err != nil {
				ph.fail("%s: %v", p.ID, err)
				continue
			}
			s.outputs[p.ID] = pointTimes{Sched: o.Sched.TimeSec, Sim: o.Sim.TimeSec}
		}
		lastPass = time.Since(passStart)
	}
	ph.Wall = time.Since(start)
	var total float64
	meds := make([]float64, 0, len(s.order))
	for _, p := range s.order {
		t := median(times[p.ID])
		meds = append(meds, t)
		total += t
	}
	ph.Rate = float64(len(s.order)) / total
	ph.P50 = median(meds)
	ph.Tail, ph.TailPct = tailLatency(meds)
	ph.Samples = len(meds)
	return ph, nil
}

// Accuracy reports how far the analytical model is from the cycle
// simulator (sim_model_gap_pct: median |simulated/analytical − 1|) and
// from the paper (paper_speedup_err_pct: median |ln(measured/published)|
// over the Figure 9 CROPHE and CROPHE-p speedups), in percent.
func (s *paperState) Accuracy(extra map[string]float64) {
	var gaps []float64
	base := map[string]float64{}
	for _, o := range s.outputs {
		gaps = append(gaps, math.Abs(o.Sim/o.Sched-1))
	}
	for _, p := range s.order {
		if o, ok := s.outputs[p.ID]; ok && p.Fig == 9 && p.Role == "base" {
			base[p.Pairing+"/"+p.Workload] = o.Sched
		}
	}
	var errs []float64
	for _, p := range s.order {
		o, ok := s.outputs[p.ID]
		pub, hasPub := publishedSpeedups[p.Pairing+"/"+p.Workload+"/"+p.Role]
		b, hasBase := base[p.Pairing+"/"+p.Workload]
		if !ok || !hasPub || !hasBase || p.Fig != 9 {
			continue
		}
		errs = append(errs, math.Abs(math.Log(b/o.Sched/pub)))
	}
	if len(gaps) > 0 {
		extra["sim_model_gap_pct"] = median(gaps) * 100
	}
	if len(errs) > 0 {
		extra["paper_speedup_err_pct"] = median(errs) * 100
	}
}

func (s *paperState) Close() error { return nil }

// modelProbePoints are the fixed design points every traced run
// evaluates, so the sched, workload and sim layers are measured on
// workloads that do not call them: the SHARP bootstrapping pair.
func modelProbePoints() []point {
	var out []point
	for _, p := range paperPoints() {
		if p.Fig == 9 && p.Pairing == arch.SHARP.Name && p.Workload == "bootstrapping" &&
			(p.Role == "base" || p.Role == "crophe") {
			out = append(out, p)
		}
	}
	return out
}
