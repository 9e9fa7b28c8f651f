package graph_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"crophe/internal/arch"
	"crophe/internal/graph"
	"crophe/internal/workload"
)

// refTopological is the original Kahn ordering: a ready list re-sorted by
// ID after every step that inserts into it. Topological must return the
// same order.
func refTopological(g *graph.Graph) []*graph.Node {
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
	sort.Slice(ready, func(i, j int) bool { return ready[i].ID < ready[j].ID })
	out := make([]*graph.Node, 0, len(g.Nodes))
	for len(ready) > 0 {
		n := ready[0]
		ready = ready[1:]
		out = append(out, n)
		inserted := false
		for _, e := range n.OutEdges {
			indeg[e.To]--
			if indeg[e.To] == 0 {
				ready = append(ready, e.To)
				inserted = true
			}
		}
		if inserted {
			sort.Slice(ready, func(i, j int) bool { return ready[i].ID < ready[j].ID })
		}
	}
	if len(out) != len(g.Nodes) {
		panic("graph: cycle detected")
	}
	return out
}

// refDecomposeNTTs is the original four-step rewrite, built with AddNode
// and Connect; DecomposeNTTs must produce the same graph.
func refDecomposeNTTs(src *graph.Graph) *graph.Graph {
	dst := graph.New()
	head := make(map[*graph.Node]*graph.Node, len(src.Nodes))
	tail := make(map[*graph.Node]*graph.Node, len(src.Nodes))
	for _, n := range refTopological(src) {
		switch n.Kind {
		case graph.OpNTT, graph.OpINTT:
			n1, n2 := graph.BalancedSplit(n.Out.N)
			col := dst.AddNode(graph.OpNTTCol, n.Name+"/col", n.Out)
			col.SubNTTLen = n2
			col.Tag = n.Tag
			tw := dst.AddNode(graph.OpTwiddle, n.Name+"/twiddle", n.Out)
			tw.Tag = n.Tag
			tr := dst.AddNode(graph.OpTranspose, n.Name+"/transpose", n.Out)
			tr.Tag = n.Tag
			row := dst.AddNode(graph.OpNTTRow, n.Name+"/row", n.Out)
			row.SubNTTLen = n1
			row.Tag = n.Tag
			dst.Connect(col, tw)
			dst.Connect(tw, tr)
			dst.Connect(tr, row)
			head[n], tail[n] = col, row
		default:
			c := dst.AddNode(n.Kind, n.Name, n.Out)
			c.SubNTTLen = n.SubNTTLen
			c.BConvWidth = n.BConvWidth
			c.Tag = n.Tag
			head[n], tail[n] = c, c
		}
		for _, e := range n.InEdges {
			var ne *graph.Edge
			if e.Class == graph.Auxiliary {
				ne = dst.ConnectAux(tail[e.From], head[n], e.AuxID)
			} else {
				ne = dst.Connect(tail[e.From], head[n])
			}
			ne.Shape = e.Shape
		}
	}
	return dst
}

// sameGraph reports the first difference between two graphs, comparing
// every node field and both edge lists of every node, in order.
func sameGraph(a, b *graph.Graph) string {
	if len(a.Nodes) != len(b.Nodes) {
		return fmt.Sprintf("%d nodes vs %d", len(a.Nodes), len(b.Nodes))
	}
	edge := func(e *graph.Edge) string {
		return fmt.Sprintf("%d->%d %+v %d %q", e.From.ID, e.To.ID, e.Shape, e.Class, e.AuxID)
	}
	edges := func(es []*graph.Edge) []string {
		var out []string
		for _, e := range es {
			out = append(out, edge(e))
		}
		return out
	}
	for i, n := range a.Nodes {
		m := b.Nodes[i]
		if n.ID != m.ID || n.Kind != m.Kind || n.Name != m.Name || n.Out != m.Out ||
			n.SubNTTLen != m.SubNTTLen || n.BConvWidth != m.BConvWidth || n.Tag != m.Tag {
			return fmt.Sprintf("node %d: %+v vs %+v", i, *n, *m)
		}
		if !reflect.DeepEqual(edges(n.InEdges), edges(m.InEdges)) || !reflect.DeepEqual(edges(n.OutEdges), edges(m.OutEdges)) {
			return fmt.Sprintf("node %d edges: %v/%v vs %v/%v", i,
				edges(n.InEdges), edges(n.OutEdges), edges(m.InEdges), edges(m.OutEdges))
		}
	}
	return ""
}

func TestDecomposeMatchesReference(t *testing.T) {
	for i, g := range paperSegments() {
		if diff := sameGraph(graph.DecomposeNTTs(g, nil), refDecomposeNTTs(g)); diff != "" {
			t.Fatalf("paper segment %d: %s", i, diff)
		}
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 200; trial++ {
		g := randomDAG(rng, 1+rng.Intn(40), trial%2 == 1)
		if diff := sameGraph(graph.DecomposeNTTs(g, nil), refDecomposeNTTs(g)); diff != "" {
			t.Fatalf("random DAG %d: %s", trial, diff)
		}
	}
}

func TestDecomposedGraphStillGrows(t *testing.T) {
	// The rewrite sizes each edge list exactly; edges added afterwards
	// must not overwrite a neighbour's list.
	g := randomDAG(rand.New(rand.NewSource(17)), 30, false)
	d := graph.DecomposeNTTs(g, nil)
	want := sameGraph(d, refDecomposeNTTs(g))
	extra := d.AddNode(graph.OpEWAdd, "extra", graph.Tensor{Digits: 1, Limbs: 2, N: 16})
	for _, n := range d.Nodes[:len(d.Nodes)-1] {
		d.Connect(n, extra)
	}
	for i, n := range d.Nodes[:len(d.Nodes)-1] {
		if last := n.OutEdges[len(n.OutEdges)-1]; last.To != extra || last.From != n {
			t.Fatalf("node %d: last out-edge %v->%v", i, last.From.ID, last.To.ID)
		}
		for _, e := range n.InEdges {
			if e.To != n {
				t.Fatalf("node %d: in-edge list overwritten", i)
			}
		}
	}
	if want != "" || len(extra.InEdges) != len(d.Nodes)-1 || extra.ID != len(d.Nodes)-1 {
		t.Fatalf("decomposed graph did not grow cleanly: %s", want)
	}
}

// paperSegments returns every segment graph of every paper workload: the
// four benchmarks under each Table III parameter set, in every rotation
// structure the designs sweep, as built and after the four-step rewrite.
func paperSegments() []*graph.Graph {
	type rot struct {
		mode workload.RotMode
		r    int
	}
	rots := []rot{{workload.RotMinKS, 0}, {workload.RotHoisted, 0},
		{workload.RotHybrid, 2}, {workload.RotHybrid, 4}, {workload.RotHybrid, 8}}
	var out []*graph.Graph
	for _, ps := range []arch.ParamSet{arch.ParamsBTS, arch.ParamsARK, arch.ParamsSHARP, arch.ParamsCL} {
		for _, r := range rots {
			for _, w := range workload.StandardSet(ps, r.mode, r.r) {
				for _, v := range []*workload.Workload{w, w.DecomposeNTTs()} {
					for _, seg := range v.Segments {
						out = append(out, seg.G)
					}
				}
			}
		}
	}
	return out
}

// randomDAG builds a seeded DAG whose creation order is not a
// topological order. With sparse set, node IDs are rewritten to unique,
// non-dense values that disagree with creation order.
func randomDAG(rng *rand.Rand, n int, sparse bool) *graph.Graph {
	g := graph.New()
	shape := graph.Tensor{Digits: 1, Limbs: 2, N: 16}
	kinds := []graph.OpKind{graph.OpInput, graph.OpEWMul, graph.OpNTT, graph.OpEWAdd, graph.OpConst}
	for i := 0; i < n; i++ {
		g.AddNode(kinds[rng.Intn(len(kinds))], "n", shape)
	}
	// A hidden topological rank decides edge direction.
	rank := rng.Perm(n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if rank[i] < rank[j] && rng.Intn(n) < 3 {
				if rng.Intn(4) == 0 {
					g.ConnectAux(g.Nodes[i], g.Nodes[j], "evk:"+string(rune('a'+rng.Intn(3))))
				} else {
					g.Connect(g.Nodes[i], g.Nodes[j])
				}
			}
		}
	}
	if sparse {
		for i, p := range rng.Perm(n) {
			g.Nodes[i].ID = 3*p + 7
		}
	}
	return g
}

func ids(ns []*graph.Node) []int {
	out := make([]int, len(ns))
	for i, n := range ns {
		out[i] = n.ID
	}
	return out
}

func TestTopologicalMatchesReference(t *testing.T) {
	for i, g := range paperSegments() {
		if got, want := ids(g.Topological()), ids(refTopological(g)); !reflect.DeepEqual(got, want) {
			t.Fatalf("paper segment %d: order %v, reference %v", i, got, want)
		}
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 300; trial++ {
		g := randomDAG(rng, 1+rng.Intn(40), trial%2 == 1)
		if got, want := ids(g.Topological()), ids(refTopological(g)); !reflect.DeepEqual(got, want) {
			t.Fatalf("random DAG %d: order %v, reference %v", trial, got, want)
		}
	}
}

func TestTopologicalPanicsOnRandomCycle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		g := randomDAG(rng, 3+rng.Intn(20), trial%2 == 1)
		// Close a cycle through the first two nodes of a valid order.
		topo := refTopological(g)
		g.Connect(topo[1], topo[0])
		g.Connect(topo[0], topo[1])
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("trial %d: expected panic on cycle", trial)
				}
			}()
			g.Topological()
		}()
	}
}

// Golden digests: the SHA-256 of the fingerprints of every paper segment
// (in paperSegments order) and of 200 seeded random DAGs, half with
// non-dense IDs, recorded before the ordering and fingerprint passes were
// rewritten. Segment memo keys and crophe-graph output both derive from
// these fingerprints, so they must never drift.
const (
	paperFingerprintDigest  = "ac23edccebeeacba20494b3c03013b41757bc50170185359c9f54f259615108e"
	randomFingerprintDigest = "53f6f5e9ab852ad562ba5430c69231bb6e22444c0c9348f5fdac5852f4df8bc9"
)

func fingerprintDigest(gs []*graph.Graph) string {
	h := sha256.New()
	for _, g := range gs {
		h.Write([]byte(g.Fingerprint()))
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestFingerprintGoldenDigest(t *testing.T) {
	if got := fingerprintDigest(paperSegments()); got != paperFingerprintDigest {
		t.Fatalf("paper fingerprint digest %s, recorded %s", got, paperFingerprintDigest)
	}
	rng := rand.New(rand.NewSource(5))
	var random []*graph.Graph
	for trial := 0; trial < 200; trial++ {
		random = append(random, randomDAG(rng, 1+rng.Intn(40), trial%2 == 1))
	}
	if got := fingerprintDigest(random); got != randomFingerprintDigest {
		t.Fatalf("random-DAG fingerprint digest %s, recorded %s", got, randomFingerprintDigest)
	}
}
