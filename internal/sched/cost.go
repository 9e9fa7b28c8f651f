package sched

import (
	"crophe/internal/arch"
	"crophe/internal/graph"
)

// coster prices candidate spatial groups — contiguous windows of one
// segment's operator order — for the DP, and reuses its slices across
// segments so the search's inner loop allocates nothing.
//
// A window grows one operator at a time (see grow), which is exact: a
// window only grows at its end, and in a topological order an operator's
// intermediate inputs come from earlier operators, so adding nodes[j]
// never changes how the edges of nodes[start..j) were classified. The
// running sums therefore add the same terms in the same node-then-edge
// order as costing the whole window from scratch, and stay bit-identical
// to it. Only the PE split and the max over stages are recomputed per
// size.
type coster struct {
	hw      *arch.HWConfig
	fine    bool // CROPHE fine-grained pipelining (MAD otherwise)
	uniform bool // Options.UniformAlloc

	nodes    []*graph.Node // the segment's operator order
	at       graph.Index
	pos      []int         // Graph.Nodes index → position in nodes, -1 if absent
	groupIdx []int         // Graph.Nodes index → group index (0 if in none)
	loads    []float64     // effLoad by position
	alloc    []int         // PE split of the last priced window that splits
	best     []cell        // DP table
	cross    []*graph.Edge // boundary-pass scratch
}

// cell is one DP entry: the best time to schedule a prefix of the order,
// and where its last group starts.
type cell struct {
	time   float64
	prev   int
	hasVal bool
}

// reset binds the coster to one segment's operator order on hw.
func (c *coster) reset(hw *arch.HWConfig, opt Options, g *graph.Graph, nodes []*graph.Node) {
	c.hw = hw
	c.fine = opt.Dataflow == DataflowCROPHE
	c.uniform = opt.UniformAlloc
	c.nodes = nodes
	c.at = g.Index()
	c.pos = resize(c.pos, len(g.Nodes))
	for i := range c.pos {
		c.pos[i] = -1
	}
	c.loads = resize(c.loads, len(nodes))
	for j, n := range nodes {
		c.pos[c.at.Of(n)] = j
		c.loads[j] = effLoad(n)
	}
	c.alloc = resize(c.alloc, len(nodes))
	c.best = resize(c.best, len(nodes)+1)
	clear(c.best)
}

// resize returns a slice of length n, reusing s's array when it fits.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// window is the running cost state of the candidate group
// nodes[start:start+size].
type window struct {
	start, size int
	traffic     Traffic
	totalLoad   float64 // modmul-equivalents
	classLoad   [arch.NumOpClasses]float64
	classes     uint // bit c is set once an operator of class c joined
	pipelined   int
	resident    float64
}

// inWindow reports whether n is one of the window's operators.
func (c *coster) inWindow(w *window, n *graph.Node) bool {
	i := c.at.Of(n)
	if i < 0 {
		return false
	}
	p := c.pos[i]
	return p >= w.start && p < w.start+w.size
}

// grow appends the next operator of the order to the window.
func (c *coster) grow(w *window) {
	j := w.start + w.size
	n := c.nodes[j]
	w.size++

	load := c.loads[j]
	w.totalLoad += load
	class := opClassOf(n.Kind)
	w.classLoad[class] += load
	w.classes |= 1 << class

	// Auxiliary (evk/plaintext/BConv-matrix) traffic is accounted at the
	// segment level (residency and sharing are cross-group decisions);
	// the group cost covers intermediates, compute and on-chip movement.
	hw := c.hw
	wb := hw.WordBytes()
	transCapBytes := hw.TransposeMB * 1e6
	tr := &w.traffic
	for _, e := range n.InEdges {
		if e.Class != graph.Intermediate {
			continue // auxiliary: counted in scheduleSegment
		}
		bytes := e.Shape.Bytes(wb)
		if !e.From.Kind.IsCompute() {
			// Segment input: produced by the preceding segment, read from
			// the global buffer (the segment split is a search artifact,
			// not a spill).
			tr.SRAM += bytes
			continue
		}
		if !c.inWindow(w, e.From) {
			// Cross-group edge: accounted in the segment-level boundary
			// pass (live-range residency).
			continue
		}
		if c.fine && canPipeline(e, hw) {
			// Fine-grained forwarding over the NoC: only a granule is
			// ever buffered.
			tr.NoC += bytes
			w.pipelined++
			w.resident += perLimbBytes(e.Shape, wb)
		} else if !hw.Homogeneous {
			// Specialised baseline under MAD fusion: the fused pair
			// forwards through the dedicated inter-unit datapath,
			// buffering a tensor slice.
			tr.NoC += bytes
			w.resident += perLimbBytes(e.Shape, wb)
		} else if e.From.Kind == graph.OpTranspose || e.To.Kind == graph.OpTranspose {
			// Through the transpose unit when the working chunk fits;
			// else the global buffer.
			if perLimbBytes(e.Shape, wb) <= transCapBytes && transCapBytes > 0 {
				tr.Transpose += bytes * spillRoundTrip
			} else {
				tr.SRAM += bytes * spillRoundTrip
				w.resident += bytes
			}
		} else {
			// Materialise in the global buffer (orientation switch or
			// coarse-grained step within the group); tensors too large
			// for their buffer share spill to DRAM — the §VII-D penalty
			// of running MAD's per-operator mapping on the homogeneous
			// array.
			if bytes <= hw.SRAMCapacityMB*1e6*interSpillFrac {
				tr.SRAM += bytes * spillRoundTrip
				w.resident += bytes
			} else {
				tr.DRAM += bytes * spillRoundTrip
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

// splits reports whether a group of size operators splits the PE array
// between them (and so has a PE allocation).
func (c *coster) splits(size int) bool {
	return c.hw.Homogeneous && c.fine && size > 1
}

// price returns the window's group time — the max of its compute time and
// every memory level — and its compute time. When the group splits the
// PE array, the split is left in c.alloc[:w.size].
func (c *coster) price(w *window) (timeSec, compute float64) {
	hw := c.hw
	freq := hw.FreqGHz * 1e9
	lanesTotal := float64(hw.TotalLanes())
	switch {
	case !hw.Homogeneous:
		// Specialised baseline: each class limited to its FU share; MAD
		// fusion overlaps classes within the (small) group.
		for class := arch.OpClass(0); class < arch.NumOpClasses; class++ {
			if w.classes&(1<<class) == 0 {
				continue
			}
			share := hw.FUShare[class]
			if share <= 0 {
				share = 0.05 // minimal fallback path
			}
			t := w.classLoad[class] / (lanesTotal * share * effSpecialized * freq)
			if t > compute {
				compute = t
			}
		}
	case c.splits(w.size):
		// Fine-grained pipeline: PEs allocated proportional to load
		// (§IV-B); pipeline throughput set by the slowest stage after
		// integer allocation. Each operator's multi-dimensional
		// decomposition spreads over at most perOpPECap PEs, so small
		// groups cannot fill a large array — the utilisation gap CROPHE-p
		// closes by partitioning the chip into clusters.
		usable := w.size * perOpPECap
		if usable > hw.NumPEs {
			usable = hw.NumPEs
		}
		alloc := c.alloc[:w.size]
		loads := c.loads[w.start : w.start+w.size]
		if c.uniform {
			for i := range alloc {
				alloc[i] = max(usable/w.size, 1)
			}
		} else {
			splitPEs(alloc, loads, w.totalLoad, usable)
		}
		for i, load := range loads {
			if load == 0 {
				continue
			}
			t := load / (float64(alloc[i]) * float64(hw.Lanes) * effPipelined * freq)
			if t > compute {
				compute = t
			}
		}
	default:
		// Solo operators on the homogeneous array execute sequentially
		// at reduced efficiency.
		compute = w.totalLoad / (lanesTotal * effSoloHomogeneous * freq)
	}
	tr := w.traffic
	timeSec = maxOf(
		compute,
		tr.DRAM/(hw.DRAMBandwidthTBs*1e12),
		tr.SRAM/(hw.SRAMBandwidthTBs*1e12),
		tr.NoC/nocBandwidth(hw),
		tr.Transpose/(hw.SRAMBandwidthTBs*1e12*0.5),
	)
	return timeSec, compute
}

// group prices nodes[start:start+size] the way the DP reached it and
// returns it as a GroupSchedule. PEAlloc is left to the caller: when the
// group splits the array, the split is in c.alloc[:size].
func (c *coster) group(start, size int) GroupSchedule {
	w := window{start: start}
	for w.size < size {
		c.grow(&w)
	}
	timeSec, compute := c.price(&w)
	return GroupSchedule{
		Nodes:         c.nodes[start : start+size],
		TimeSec:       timeSec,
		Compute:       compute,
		Traffic:       w.traffic,
		Pipelined:     w.pipelined,
		ResidentBytes: w.resident,
	}
}

// assignGroups records each operator's group for the segment-level
// passes; operators in no group read as group 0.
func (c *coster) assignGroups(groups []GroupSchedule) {
	c.groupIdx = resize(c.groupIdx, len(c.pos))
	clear(c.groupIdx)
	for gi, g := range groups {
		for _, n := range g.Nodes {
			c.groupIdx[c.at.Of(n)] = gi
		}
	}
}

// groupOf returns n's group index (see assignGroups).
func (c *coster) groupOf(n *graph.Node) int {
	if i := c.at.Of(n); i >= 0 {
		return c.groupIdx[i]
	}
	return 0
}
