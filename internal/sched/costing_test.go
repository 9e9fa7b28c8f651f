package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/workload"
)

// The incremental candidate costing and the rewritten ordering must
// reproduce the references in reference_test.go bit for bit.

// paperSegmentSet returns one graph per distinct segment fingerprint of
// the paper's four workloads under ps, in the rotation structures the
// designs sweep, as built and after the four-step rewrite.
func paperSegmentSet(ps arch.ParamSet) []*graph.Graph {
	type rot struct {
		mode workload.RotMode
		r    int
	}
	rots := []rot{{workload.RotMinKS, 0}, {workload.RotHoisted, 0}, {workload.RotHybrid, 4}}
	seen := map[string]bool{}
	var out []*graph.Graph
	for _, r := range rots {
		for _, w := range workload.StandardSet(ps, r.mode, r.r) {
			for _, v := range []*workload.Workload{w, w.DecomposeNTTs()} {
				for _, seg := range v.Segments {
					if fp := seg.G.Fingerprint(); !seen[fp] {
						seen[fp] = true
						out = append(out, seg.G)
					}
				}
			}
		}
	}
	return out
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameTraffic(a, b Traffic) bool {
	return sameBits(a.DRAM, b.DRAM) && sameBits(a.SRAM, b.SRAM) &&
		sameBits(a.NoC, b.NoC) && sameBits(a.Transpose, b.Transpose)
}

// checkGroup compares a priced window with the reference costing of the
// same operators.
func checkGroup(t *testing.T, what string, got GroupSchedule, want *refGroup) {
	t.Helper()
	if !sameBits(got.TimeSec, want.TimeSec) || !sameBits(got.Compute, want.Compute) ||
		!sameTraffic(got.Traffic, want.Traffic) || got.Pipelined != want.Pipelined ||
		!sameBits(got.ResidentBytes, want.ResidentBytes) {
		t.Fatalf("%s: got time %v compute %v traffic %+v pipelined %d resident %v; "+
			"reference time %v compute %v traffic %+v pipelined %d resident %v", what,
			got.TimeSec, got.Compute, got.Traffic, got.Pipelined, got.ResidentBytes,
			want.TimeSec, want.Compute, want.Traffic, want.Pipelined, want.ResidentBytes)
	}
	if len(want.PEAlloc) == 0 {
		if got.PEAlloc != nil {
			t.Fatalf("%s: PE allocation %v, reference has none", what, got.PEAlloc)
		}
		return
	}
	if len(got.PEAlloc) != len(want.Nodes) {
		t.Fatalf("%s: PE allocation %v for %d operators", what, got.PEAlloc, len(want.Nodes))
	}
	for m, n := range want.Nodes {
		if got.PEAlloc[m] != want.PEAlloc[n.ID] {
			t.Fatalf("%s: PE allocation %v, reference %v", what, got.PEAlloc, want.PEAlloc)
		}
	}
}

// TestCostingMatchesReference prices every (i, k) candidate of every
// distinct paper segment the way the DP does — one window per row, grown
// a node at a time — and rebuilds each window from scratch the way
// reconstruction does, comparing both with the reference costing.
func TestCostingMatchesReference(t *testing.T) {
	cro28 := arch.CROPHE36.Clone()
	cro28.Name, cro28.WordBits = "CROPHE-28", 28
	platforms := []struct {
		hw *arch.HWConfig
		ps arch.ParamSet
	}{
		// Figure 9: each baseline (specialised, non-homogeneous) and the
		// CROPHE variant it is paired with.
		{arch.BTS, arch.ParamsBTS}, {arch.CROPHE64, arch.ParamsBTS},
		{arch.ARK, arch.ParamsARK}, {arch.CROPHE64, arch.ParamsARK},
		{arch.SHARP, arch.ParamsSHARP}, {arch.CROPHE36, arch.ParamsSHARP},
		{arch.CLPlus, arch.ParamsCL}, {cro28, arch.ParamsCL},
		// Figure 10's smallest SRAM point: materialised intermediates
		// spill to DRAM.
		{arch.CROPHE36.WithSRAM(45), arch.ParamsSHARP},
	}
	policies := []Options{DefaultOptions(DataflowMAD), DefaultOptions(DataflowCROPHE)}
	uniform := DefaultOptions(DataflowCROPHE)
	uniform.UniformAlloc = true
	policies = append(policies, uniform)

	segs := map[string][]*graph.Graph{}
	candidates := 0
	for _, pf := range platforms {
		if segs[pf.ps.Name] == nil {
			segs[pf.ps.Name] = paperSegmentSet(pf.ps)
		}
		for _, opt := range policies {
			s := New(pf.hw, opt)
			maxK := opt.MaxGroupSize
			if opt.Dataflow == DataflowMAD {
				maxK = 2
			}
			for si, g := range segs[pf.ps.Name] {
				nodes := g.ComputeNodes()
				if opt.Dataflow == DataflowCROPHE {
					var err error
					if nodes, err = auxAffinityOrder(g); err != nil {
						t.Fatal(err)
					}
				}
				c := &s.cost
				c.reset(pf.hw, s.Opt, g, nodes)
				for i := range nodes {
					w := window{start: i}
					for k := 1; k <= maxK && i+k <= len(nodes); k++ {
						candidates++
						c.grow(&w)
						timeSec, compute := c.price(&w)
						grown := GroupSchedule{TimeSec: timeSec, Compute: compute, Traffic: w.traffic,
							Pipelined: w.pipelined, ResidentBytes: w.resident}
						if c.splits(k) {
							grown.PEAlloc = c.alloc[:k]
						}
						want := refCostGroup(s, pf.hw, nodes[i:i+k])
						where := func(how string) string {
							return pf.hw.Name + "/" + opt.Dataflow.String() + "/" + how
						}
						checkGroup(t, where("grown"), grown, want)
						rebuilt := c.group(i, k)
						if c.splits(k) {
							rebuilt.PEAlloc = c.alloc[:k]
						}
						checkGroup(t, where("rebuilt"), rebuilt, want)
						if t.Failed() {
							t.Fatalf("segment %d window [%d,%d)", si, i, i+k)
						}
					}
				}
			}
		}
	}
	t.Logf("%d candidates checked", candidates)
}

// randomSegment builds a seeded DAG of compute operators (plus inputs and
// constants) whose creation order is not a topological order; with sparse
// set its node IDs are unique but not dense.
func randomSegment(rng *rand.Rand, n int, sparse bool) *graph.Graph {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 2, N: 16}
	kinds := []graph.OpKind{graph.OpInput, graph.OpEWMul, graph.OpNTT, graph.OpEWAdd, graph.OpConst, graph.OpAutomorph}
	for i := 0; i < n; i++ {
		g.AddNode(kinds[rng.Intn(len(kinds))], "n", shape)
	}
	rank := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rank[i] < rank[j] && rng.Intn(n) < 3 {
				if rng.Intn(3) == 0 {
					g.ConnectAux(g.Nodes[i], g.Nodes[j], []string{"evk:a", "evk:b", "pt:c"}[rng.Intn(3)])
				} else {
					g.Connect(g.Nodes[i], g.Nodes[j])
				}
			}
		}
	}
	if sparse {
		for i, p := range rng.Perm(n) {
			g.Nodes[i].ID = 5*p + 3
		}
	}
	return g
}

func nodeIDs(ns []*graph.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestAffinityOrderMatchesReference(t *testing.T) {
	var gs []*graph.Graph
	for _, ps := range []arch.ParamSet{arch.ParamsBTS, arch.ParamsARK, arch.ParamsSHARP, arch.ParamsCL} {
		gs = append(gs, paperSegmentSet(ps)...)
	}
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 300; trial++ {
		gs = append(gs, randomSegment(rng, 1+rng.Intn(40), trial%2 == 1))
	}
	for i, g := range gs {
		got, err := auxAffinityOrder(g)
		want, refErr := refAuxAffinityOrder(g)
		if err != nil || refErr != nil {
			t.Fatalf("graph %d: errors %v / reference %v", i, err, refErr)
		}
		if !reflect.DeepEqual(nodeIDs(got), nodeIDs(want)) {
			t.Fatalf("graph %d: order %v, reference %v", i, nodeIDs(got), nodeIDs(want))
		}
	}
}

func TestAffinityOrderRandomCycleMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 40; trial++ {
		g := randomSegment(rng, 3+rng.Intn(20), trial%2 == 1)
		// Close a cycle between two nodes somewhere in the graph.
		a, b := g.Nodes[rng.Intn(len(g.Nodes))], g.Nodes[rng.Intn(len(g.Nodes))]
		g.Connect(a, b)
		g.Connect(b, a)
		_, err := auxAffinityOrder(g)
		_, refErr := refAuxAffinityOrder(g)
		ce, ok := err.(*CycleError)
		if !ok {
			t.Fatalf("trial %d: want *CycleError, got %T: %v", trial, err, err)
		}
		if !reflect.DeepEqual(ce, refErr) {
			t.Fatalf("trial %d: %+v, reference %+v", trial, ce, refErr)
		}
	}
}

// TestScheduleAllocsBoundedByGroups pins the search's allocation profile:
// scheduling a bootstrapping segment allocates per chosen group (the
// schedule it returns) and per segment, never per DP candidate.
func TestScheduleAllocsBoundedByGroups(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	boot := workload.Bootstrapping(testParams, workload.RotHoisted, 0).DecomposeNTTs()
	seg := boot.Segments[0]
	for _, s := range boot.Segments {
		if len(s.G.Nodes) > len(seg.G.Nodes) {
			seg = s
		}
	}
	seg.Count = 1
	w := &workload.Workload{Name: boot.Name, Params: boot.Params, DataParallel: 1,
		Segments: []workload.Segment{seg}}
	opt := DefaultOptions(DataflowCROPHE)

	before := Stats().Candidates
	res := New(arch.CROPHE64, opt).Run(w)
	candidates := Stats().Candidates - before
	groups := len(res.Segments[0].Groups)

	allocs := testing.AllocsPerRun(5, func() { New(arch.CROPHE64, opt).Run(w) })
	bound := float64(4*groups + 64)
	if allocs > bound {
		t.Fatalf("%.0f allocations for %d groups (bound %.0f) over %d candidates", allocs, groups, bound, candidates)
	}
	// The bound must sit well below one allocation per candidate, or the
	// test could not tell the two apart.
	if float64(candidates) < 4*bound {
		t.Fatalf("segment too small to pin: %d candidates for bound %.0f", candidates, bound)
	}
	t.Logf("%.0f allocations, %d groups, %d candidates", allocs, groups, candidates)
}
