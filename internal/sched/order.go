package sched

import (
	"cmp"
	"slices"
	"sort"

	"crophe/internal/graph"
)

// auxAffinityOrder returns the compute nodes of a graph in a topological
// order that greedily keeps consumers of the same auxiliary data adjacent.
// Any topological order is a legal schedule; this one maximises the
// spatial-sharing opportunities the group-formation DP can exploit: when
// several ready operators consume the same evk, they are emitted
// back-to-back and land in one group, so the evk is streamed once.
// A graph with a dependency cycle yields a *CycleError.
func auxAffinityOrder(g *graph.Graph) ([]*graph.Node, error) {
	at := g.Index()
	indeg := make([]int, len(g.Nodes))
	ready := make([]*graph.Node, 0, len(g.Nodes)) // kept sorted by ID
	for i, n := range g.Nodes {
		indeg[i] = len(n.InEdges)
		if indeg[i] == 0 {
			ready = append(ready, n)
		}
	}
	slices.SortFunc(ready, func(a, b *graph.Node) int { return cmp.Compare(a.ID, b.ID) })

	out := make([]*graph.Node, 0, len(g.Nodes))
	visited := 0
	lastAux := ""
	// recent holds the last few emitted compute nodes, as a ring;
	// consuming their outputs keeps intermediate live ranges short (the
	// loop-interleaving freedom of the paper's scheduler: a baby-step
	// ciphertext's PMults run back-to-back instead of once per giant
	// step).
	var recent [6]*graph.Node
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
			recent[len(out)%len(recent)] = n
			out = append(out, n)
			lastAux = primaryAux(n)
		}
		for _, e := range n.OutEdges {
			if i := at.Of(e.To); i >= 0 {
				if indeg[i]--; indeg[i] == 0 {
					ready = insertByID(ready, e.To)
				}
			}
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

// primaryAux returns the dominant auxiliary input of a node (the largest
// aux edge, preferring evks — the expensive streams worth co-scheduling).
func primaryAux(n *graph.Node) string {
	best := ""
	var bestBytes float64
	for _, e := range n.InEdges {
		if e.Class != graph.Auxiliary {
			continue
		}
		b := e.Shape.Bytes(8)
		if isEvk(e.AuxID) {
			b *= 1000 // always prefer the evk stream
		}
		if b > bestBytes {
			bestBytes = b
			best = e.AuxID
		}
	}
	return best
}

// insertByID inserts n into ns, which is sorted by ID, keeping it sorted.
func insertByID(ns []*graph.Node, n *graph.Node) []*graph.Node {
	i := sort.Search(len(ns), func(i int) bool { return ns[i].ID > n.ID })
	ns = append(ns, nil)
	copy(ns[i+1:], ns[i:])
	ns[i] = n
	return ns
}
