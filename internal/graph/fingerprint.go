package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
)

// Fingerprint returns a structural hash of the graph: operator kinds,
// shapes, attributes and the edge pattern, with node identity abstracted
// to topological positions and auxiliary identities to their shapes and
// sharing pattern. Two graphs with equal fingerprints describe the same
// computation up to renaming — the redundancy the paper's pre-partitioning
// merges to "search only once" (§V-D). The scheduler memoises segment
// schedules by (fingerprint, hardware, options).
func (g *Graph) Fingerprint() string {
	topo := g.Topological()
	idx := g.Index()
	pos := make([]int, len(g.Nodes)) // Graph.Nodes index → topological position
	for i, n := range topo {
		pos[idx.Of(n)] = i
	}
	// Canonical aux numbering: order of first appearance in topo order.
	auxNum := map[string]int{}
	// The hashed stream is 64-bit little-endian words, written to the
	// digest a block at a time.
	h := sha256.New()
	buf := make([]byte, 0, 1024)
	writeInt := func(v int) {
		if len(buf) == cap(buf) {
			h.Write(buf)
			buf = buf[:0]
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(v)))
	}
	edges := edgeOrder{pos: pos, idx: idx}
	for _, n := range topo {
		writeInt(int(n.Kind))
		writeInt(n.Out.Digits)
		writeInt(n.Out.Limbs)
		writeInt(n.Out.N)
		writeInt(n.SubNTTLen)
		writeInt(n.BConvWidth)
		// Edges sorted by (consumer position, class) for determinism.
		edges.es = append(edges.es[:0], n.OutEdges...)
		sort.Sort(&edges)
		writeInt(len(edges.es))
		for _, e := range edges.es {
			writeInt(edges.posOf(e.To))
			writeInt(int(e.Class))
			writeInt(e.Shape.Digits)
			writeInt(e.Shape.Limbs)
			writeInt(e.Shape.N)
			if e.Class == Auxiliary {
				id, ok := auxNum[e.AuxID]
				if !ok {
					id = len(auxNum)
					auxNum[e.AuxID] = id
				}
				writeInt(id)
				// Distinguish evk-class aux (PRNG-halved) from others.
				if isEvkID(e.AuxID) {
					writeInt(1)
				} else {
					writeInt(0)
				}
			}
		}
	}
	h.Write(buf)
	return hex.EncodeToString(h.Sum(nil)[:16])
}

// edgeOrder sorts one node's out-edges by (consumer position, class).
// sort.Sort runs the same pdqsort as sort.Slice, so edges with equal keys
// keep the order the hash has always seen.
type edgeOrder struct {
	es  []*Edge
	pos []int
	idx Index
}

// posOf is a consumer's topological position; a node outside the graph
// reads as position 0.
func (o *edgeOrder) posOf(n *Node) int {
	if i := o.idx.Of(n); i >= 0 {
		return o.pos[i]
	}
	return 0
}

func (o *edgeOrder) Len() int      { return len(o.es) }
func (o *edgeOrder) Swap(i, j int) { o.es[i], o.es[j] = o.es[j], o.es[i] }
func (o *edgeOrder) Less(i, j int) bool {
	pi, pj := o.posOf(o.es[i].To), o.posOf(o.es[j].To)
	if pi != pj {
		return pi < pj
	}
	return o.es[i].Class < o.es[j].Class
}

func isEvkID(id string) bool {
	return len(id) >= 4 && id[:4] == "evk:"
}
