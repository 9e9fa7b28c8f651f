package graph

import "strings"

// DecomposeNTTs returns a copy of the graph in which every whole NTT/iNTT
// node is replaced by its four-step decomposition (§V-B / Figure 7):
//
//	col-(i)NTT → twiddle ⊗ → transpose → row-(i)NTT
//
// The column and row parts have N1 (resp. N2) independent sub-transforms
// and therefore stream — they no longer break orientation — while the
// transpose runs on the dedicated transpose unit. split chooses N = N1×N2
// for a given N; a nil split uses the balanced power-of-two split.
func DecomposeNTTs(src *Graph, split func(n int) (n1, n2 int)) *Graph {
	if split == nil {
		split = BalancedSplit
	}
	topo := src.Topological()
	at := src.Index()
	// Size the copy up front: its nodes, edges, edge lists and the names
	// of the four-step parts then take one allocation each.
	var nodes, edges, nameLen int
	for _, n := range topo {
		edges += len(n.InEdges)
		if n.Kind == OpNTT || n.Kind == OpINTT {
			nodes += len(fourStepParts)
			edges += len(fourStepParts) - 1
			for _, suffix := range fourStepParts {
				nameLen += len(n.Name) + len(suffix)
			}
		} else {
			nodes++
		}
	}
	var names strings.Builder
	names.Grow(nameLen)
	for _, n := range topo {
		if n.Kind == OpNTT || n.Kind == OpINTT {
			for _, suffix := range fourStepParts {
				names.WriteString(n.Name)
				names.WriteString(suffix)
			}
		}
	}
	partNames := names.String()
	dst := &Graph{Nodes: make([]*Node, 0, nodes)}
	a := arena{g: dst, nodes: make([]Node, nodes), edges: make([]Edge, edges), lists: make([]*Edge, 2*edges)}
	// head/tail map an original node (by index) to its replacement chain
	// ends.
	head := make([]*Node, len(src.Nodes))
	tail := make([]*Node, len(src.Nodes))

	for _, n := range topo {
		i := at.Of(n)
		switch n.Kind {
		case OpNTT, OpINTT:
			n1, n2 := split(n.Out.N)
			var chain [len(fourStepParts)]*Node
			for k, suffix := range fourStepParts {
				in, out := 1, 1
				if k == 0 {
					in = len(n.InEdges)
				}
				if k == len(fourStepParts)-1 {
					out = len(n.OutEdges)
				}
				name := partNames[:len(n.Name)+len(suffix)]
				partNames = partNames[len(name):]
				chain[k] = a.node(fourStepKinds[k], name, n.Out, in, out)
				chain[k].Tag = n.Tag
				if k > 0 {
					a.connect(chain[k-1], chain[k], n.Out, Intermediate, "")
				}
			}
			chain[0].SubNTTLen = n2
			chain[len(chain)-1].SubNTTLen = n1
			head[i], tail[i] = chain[0], chain[len(chain)-1]
		default:
			c := a.node(n.Kind, n.Name, n.Out, len(n.InEdges), len(n.OutEdges))
			c.SubNTTLen = n.SubNTTLen
			c.BConvWidth = n.BConvWidth
			c.Tag = n.Tag
			head[i], tail[i] = c, c
		}
		for _, e := range n.InEdges {
			a.connect(tail[at.Of(e.From)], head[i], e.Shape, e.Class, e.AuxID)
		}
	}
	return dst
}

// The four-step parts replacing a whole (i)NTT, in pipeline order.
var (
	fourStepParts = [...]string{"/col", "/twiddle", "/transpose", "/row"}
	fourStepKinds = [...]OpKind{OpNTTCol, OpTwiddle, OpTranspose, OpNTTRow}
)

// arena hands out the nodes, edges and exactly-sized edge lists of a graph
// whose size is known up front.
type arena struct {
	g     *Graph
	nodes []Node
	edges []Edge
	lists []*Edge
}

// node adds a node with room for in in-edges and out out-edges.
func (a *arena) node(kind OpKind, name string, t Tensor, in, out int) *Node {
	n := &a.nodes[0]
	a.nodes = a.nodes[1:]
	*n = Node{ID: a.g.nexts, Kind: kind, Name: name, Out: t,
		InEdges: a.lists[:0:in], OutEdges: a.lists[in : in : in+out]}
	a.lists = a.lists[in+out:]
	a.g.nexts++
	a.g.Nodes = append(a.g.Nodes, n)
	return n
}

// connect adds an edge, as Connect or ConnectAux would.
func (a *arena) connect(from, to *Node, shape Tensor, class DataClass, auxID string) {
	e := &a.edges[0]
	a.edges = a.edges[1:]
	*e = Edge{From: from, To: to, Shape: shape, Class: class, AuxID: auxID}
	from.OutEdges = append(from.OutEdges, e)
	to.InEdges = append(to.InEdges, e)
}

// BalancedSplit returns the near-square power-of-two factorisation of n.
func BalancedSplit(n int) (int, int) {
	n1 := 1
	for n1*n1 < n {
		n1 <<= 1
	}
	if n1 > n {
		n1 = n
	}
	return n1, n / n1
}
