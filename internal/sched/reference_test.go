package sched

import (
	"math"
	"sort"

	"crophe/internal/arch"
	"crophe/internal/graph"
)

// The candidate costing and operator ordering as they were before the DP
// became incremental, kept verbatim as the references the rewritten
// passes must match bit for bit (see costing_test.go).

// refGroup is the reference result of costing one candidate group.
type refGroup struct {
	Nodes         []*graph.Node
	TimeSec       float64
	Compute       float64
	Traffic       Traffic
	Pipelined     int
	AuxShared     int
	PEAlloc       map[int]int
	ResidentBytes float64
}

// refCostGroup evaluates one candidate spatial group. Returns nil if the
// group is infeasible (never happens with the current constraints, but the
// search contract allows rejection).
func refCostGroup(s *Scheduler, hw *arch.HWConfig, nodes []*graph.Node) *refGroup {
	inGroup := make(map[*graph.Node]bool, len(nodes))
	for _, n := range nodes {
		inGroup[n] = true
	}
	fine := s.Opt.Dataflow == DataflowCROPHE

	gs := &refGroup{Nodes: nodes, PEAlloc: map[int]int{}}

	// --- Compute time --------------------------------------------------
	var totalLoad float64 // modmul-equivalents
	classLoad := map[arch.OpClass]float64{}
	for _, n := range nodes {
		load := effLoad(n)
		totalLoad += load
		classLoad[opClassOf(n.Kind)] += load
	}
	freq := hw.FreqGHz * 1e9
	lanesTotal := float64(hw.TotalLanes())
	var computeSec float64
	switch {
	case !hw.Homogeneous:
		// Specialised baseline: each class limited to its FU share; MAD
		// fusion overlaps classes within the (small) group.
		for c, load := range classLoad {
			share := hw.FUShare[c]
			if share <= 0 {
				share = 0.05 // minimal fallback path
			}
			t := load / (lanesTotal * share * effSpecialized * freq)
			if t > computeSec {
				computeSec = t
			}
		}
	case fine && len(nodes) > 1:
		// Fine-grained pipeline: PEs allocated proportional to load
		// (§IV-B); pipeline throughput set by the slowest stage after
		// integer allocation. Each operator's multi-dimensional
		// decomposition spreads over at most perOpPECap PEs, so small
		// groups cannot fill a large array — the utilisation gap CROPHE-p
		// closes by partitioning the chip into clusters.
		usable := len(nodes) * perOpPECap
		if usable > hw.NumPEs {
			usable = hw.NumPEs
		}
		var allocs []int
		if s.Opt.UniformAlloc {
			allocs = make([]int, len(nodes))
			for i := range allocs {
				allocs[i] = usable / len(nodes)
				if allocs[i] < 1 {
					allocs[i] = 1
				}
			}
		} else {
			allocs = refAllocatePEs(nodes, usable)
		}
		for i, n := range nodes {
			gs.PEAlloc[n.ID] = allocs[i]
			load := effLoad(n)
			if load == 0 {
				continue
			}
			t := load / (float64(allocs[i]) * float64(hw.Lanes) * effPipelined * freq)
			if t > computeSec {
				computeSec = t
			}
		}
	default:
		// Solo operators on the homogeneous array execute sequentially
		// at reduced efficiency.
		computeSec = totalLoad / (lanesTotal * effSoloHomogeneous * freq)
	}
	gs.Compute = computeSec

	// --- Traffic --------------------------------------------------------
	// Auxiliary (evk/plaintext/BConv-matrix) traffic is accounted at the
	// segment level (residency and sharing are cross-group decisions);
	// costGroup handles intermediates, compute and on-chip movement.
	wb := hw.WordBytes()
	var tr Traffic
	transCapBytes := hw.TransposeMB * 1e6

	for _, n := range nodes {
		for _, e := range n.InEdges {
			bytes := e.Shape.Bytes(wb)
			switch e.Class {
			case graph.Auxiliary:
				// Counted in scheduleSegment (residency & sharing).
			case graph.Intermediate:
				if !e.From.Kind.IsCompute() {
					// Segment input: produced by the preceding segment,
					// read from the global buffer (the segment split is a
					// search artifact, not a spill).
					tr.SRAM += bytes
					continue
				}
				if !inGroup[e.From] {
					// Cross-group edge: accounted in the segment-level
					// boundary pass (live-range residency).
					continue
				}
				if fine && canPipeline(e, hw) {
					// Fine-grained forwarding over the NoC: only a
					// granule is ever buffered.
					tr.NoC += bytes
					gs.Pipelined++
					gs.ResidentBytes += perLimbBytes(e.Shape, wb)
				} else if !hw.Homogeneous {
					// Specialised baseline under MAD fusion: the fused
					// pair forwards through the dedicated inter-unit
					// datapath, buffering a tensor slice.
					tr.NoC += bytes
					gs.ResidentBytes += perLimbBytes(e.Shape, wb)
				} else if e.From.Kind == graph.OpTranspose || e.To.Kind == graph.OpTranspose {
					// Through the transpose unit when the working chunk
					// fits; else the global buffer.
					if perLimbBytes(e.Shape, wb) <= transCapBytes && transCapBytes > 0 {
						tr.Transpose += bytes * spillRoundTrip
					} else {
						tr.SRAM += bytes * spillRoundTrip
						gs.ResidentBytes += bytes
					}
				} else {
					// Materialise in the global buffer (orientation
					// switch or coarse-grained step within the group);
					// tensors too large for their buffer share spill to
					// DRAM — the §VII-D penalty of running MAD's
					// per-operator mapping on the homogeneous array.
					if bytes <= hw.SRAMCapacityMB*1e6*interSpillFrac {
						tr.SRAM += bytes * spillRoundTrip
						gs.ResidentBytes += bytes
					} else {
						tr.DRAM += bytes * spillRoundTrip
					}
				}
			}
		}
		// Chip outputs are written back to the global buffer for the next
		// segment.
		for _, e := range n.OutEdges {
			if e.Class == graph.Intermediate && !e.To.Kind.IsCompute() {
				tr.SRAM += e.Shape.Bytes(wb)
			}
		}
	}
	gs.Traffic = tr

	gs.TimeSec = maxOf(
		computeSec,
		tr.DRAM/(hw.DRAMBandwidthTBs*1e12),
		tr.SRAM/(hw.SRAMBandwidthTBs*1e12),
		tr.NoC/nocBandwidth(hw),
		tr.Transpose/(hw.SRAMBandwidthTBs*1e12*0.5),
	)
	return gs
}

// refAllocatePEs distributes PEs to group operators proportionally to their
// load with a minimum of one each (§IV-B).
func refAllocatePEs(nodes []*graph.Node, pes int) []int {
	loads := make([]float64, len(nodes))
	var total float64
	for i, n := range nodes {
		loads[i] = effLoad(n)
		total += loads[i]
	}
	alloc := make([]int, len(nodes))
	remaining := pes
	if total == 0 {
		for i := range alloc {
			alloc[i] = 1
		}
		return alloc
	}
	for i := range nodes {
		a := int(math.Floor(loads[i] / total * float64(pes)))
		if a < 1 {
			a = 1
		}
		alloc[i] = a
		remaining -= a
	}
	// Hand out leftovers (or reclaim overdraft) to the heaviest stages.
	for remaining != 0 {
		idx, bestRatio := -1, -1.0
		for i := range nodes {
			var ratio float64
			if remaining > 0 {
				ratio = loads[i] / float64(alloc[i])
				if ratio > bestRatio {
					bestRatio, idx = ratio, i
				}
			} else if alloc[i] > 1 {
				ratio = float64(alloc[i]) / (loads[i] + 1)
				if ratio > bestRatio {
					bestRatio, idx = ratio, i
				}
			}
		}
		if idx < 0 {
			break
		}
		if remaining > 0 {
			alloc[idx]++
			remaining--
		} else {
			alloc[idx]--
			remaining++
		}
	}
	return alloc
}

// refAuxAffinityOrder returns the compute nodes of a graph in a topological
// order that greedily keeps consumers of the same auxiliary data adjacent.
// Any topological order is a legal schedule; this one maximises the
// spatial-sharing opportunities the group-formation DP can exploit: when
// several ready operators consume the same evk, they are emitted
// back-to-back and land in one group, so the evk is streamed once.
// A graph with a dependency cycle yields a *CycleError.
func refAuxAffinityOrder(g *graph.Graph) ([]*graph.Node, error) {
	indeg := make(map[*graph.Node]int, len(g.Nodes))
	for _, n := range g.Nodes {
		indeg[n] = len(n.InEdges)
	}
	var ready []*graph.Node
	for _, n := range g.Nodes {
		if indeg[n] == 0 {
			ready = append(ready, n)
		}
	}
	refSortByID(ready)

	out := make([]*graph.Node, 0, len(g.Nodes))
	visited := 0
	lastAux := ""
	// recent holds the last few emitted nodes; consuming their outputs
	// keeps intermediate live ranges short (the loop-interleaving freedom
	// of the paper's scheduler: a baby-step ciphertext's PMults run
	// back-to-back instead of once per giant step).
	var recent []*graph.Node
	for len(ready) > 0 {
		idx, bestScore := 0, -1
		for i, n := range ready {
			score := 0
			for _, e := range n.InEdges {
				if e.Class != graph.Intermediate {
					continue
				}
				for _, r := range recent {
					if e.From == r {
						score += 2
					}
				}
			}
			if lastAux != "" && primaryAux(n) == lastAux {
				score++
			}
			if score > bestScore {
				bestScore, idx = score, i
			}
		}
		n := ready[idx]
		ready = append(ready[:idx], ready[idx+1:]...)
		visited++
		if n.Kind.IsCompute() {
			out = append(out, n)
			lastAux = primaryAux(n)
			recent = append(recent, n)
			if len(recent) > 6 {
				recent = recent[1:]
			}
		}
		inserted := false
		for _, e := range n.OutEdges {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
				inserted = true
			}
		}
		if inserted {
			refSortByID(ready)
		}
	}
	// A well-formed operator graph is a DAG; leftovers mean a dependency
	// cycle, and silently scheduling only part of the workload would
	// corrupt every downstream cost model.
	if visited != len(g.Nodes) {
		return nil, &CycleError{Ordered: visited, Total: len(g.Nodes)}
	}
	return out, nil
}

func refSortByID(ns []*graph.Node) {
	sort.Slice(ns, func(i, j int) bool { return ns[i].ID < ns[j].ID })
}
