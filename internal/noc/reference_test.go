package noc

import (
	"fmt"
	"sort"

	"crophe/internal/telemetry"
)

// The map-based mesh as it was before the link table became dense, kept
// verbatim (identifiers renamed) as the reference the dense mesh must
// match bit for bit (see reference_compare_test.go).

// refMesh is a W×H array of routers with bidirectional links.
type refMesh struct {
	W, H int
	// LinkBytesPerCycle is the payload capacity of one link per cycle.
	LinkBytesPerCycle float64
	// HopLatency is the per-hop router+wire latency in cycles.
	HopLatency int

	// linkLoad accumulates bytes per directed link, keyed by the link's
	// source coordinate and direction.
	linkLoad map[refLinkKey]float64
	// totalLoad is the running Σ over linkLoad, maintained at the update
	// sites so TotalBytesHops never sums the map in iteration order
	// (float addition is non-associative, so a map-order sum differs
	// run to run).
	totalLoad float64
	// sends counts routed transfers (unicasts plus multicast legs) since
	// the last Reset.
	sends int

	// dead marks directed links that are down; routing detours around
	// them. slow maps directed links to a capacity factor in (0, 1).
	dead map[refLinkKey]bool
	slow map[refLinkKey]float64
}

type refLinkKey struct {
	from Coord
	dir  byte // 'E','W','N','S'
}

// newRefMesh creates a mesh with the given dimensions and link capacity.
func newRefMesh(w, h int, linkBytesPerCycle float64, hopLatency int) (*refMesh, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("noc: mesh dimensions %dx%d invalid", w, h)
	}
	if linkBytesPerCycle <= 0 {
		return nil, fmt.Errorf("noc: link capacity must be positive")
	}
	if hopLatency < 1 {
		hopLatency = 1
	}
	return &refMesh{
		W: w, H: h,
		LinkBytesPerCycle: linkBytesPerCycle,
		HopLatency:        hopLatency,
		linkLoad:          make(map[refLinkKey]float64),
	}, nil
}

// PEIndex maps a linear PE id (row-major) to its coordinate.
func (m *refMesh) PEIndex(id int) Coord {
	return Coord{X: id % m.W, Y: id / m.W}
}

// Contains reports whether c is inside the mesh.
func (m *refMesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// step offsets in the deterministic neighbour order used by both the
// fault-free X-Y router and the BFS detour router.
var refDirs = []struct {
	dx, dy int
	dir    byte
}{
	{1, 0, 'E'}, {-1, 0, 'W'}, {0, 1, 'S'}, {0, -1, 'N'},
}

// DisableLink marks the physical link leaving from in direction dir as
// down, in both directions. Routing detours around disabled links; loads
// already accumulated on them are kept (they were routed while the link
// was up).
func (m *refMesh) DisableLink(from Coord, dir byte) error {
	k, rev, err := m.linkPair(from, dir)
	if err != nil {
		return err
	}
	if m.dead == nil {
		m.dead = make(map[refLinkKey]bool)
	}
	m.dead[k] = true
	m.dead[rev] = true
	return nil
}

// SlowLink scales the capacity of the physical link leaving from in
// direction dir (both directions) by factor in (0, 1].
func (m *refMesh) SlowLink(from Coord, dir byte, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("noc: slow-link factor %v outside (0, 1]", factor)
	}
	k, rev, err := m.linkPair(from, dir)
	if err != nil {
		return err
	}
	if m.slow == nil {
		m.slow = make(map[refLinkKey]float64)
	}
	m.slow[k] = factor
	m.slow[rev] = factor
	return nil
}

// linkPair validates a (coord, direction) link reference and returns the
// directed key plus its reverse.
func (m *refMesh) linkPair(from Coord, dir byte) (refLinkKey, refLinkKey, error) {
	if !m.Contains(from) {
		return refLinkKey{}, refLinkKey{}, fmt.Errorf("noc: link source %v outside %dx%d mesh", from, m.W, m.H)
	}
	for _, d := range refDirs {
		if d.dir != dir {
			continue
		}
		to := Coord{X: from.X + d.dx, Y: from.Y + d.dy}
		if !m.Contains(to) {
			return refLinkKey{}, refLinkKey{}, fmt.Errorf("noc: no %c link at %v (mesh edge)", dir, from)
		}
		rev, err := refLinkOf(to, from)
		if err != nil {
			return refLinkKey{}, refLinkKey{}, err
		}
		return refLinkKey{from, dir}, rev, nil
	}
	return refLinkKey{}, refLinkKey{}, fmt.Errorf("noc: unknown link direction %q", string(dir))
}

// DeadLinks returns the number of disabled physical links (undirected).
func (m *refMesh) DeadLinks() int { return len(m.dead) / 2 }

// SlowLinks returns the number of slowed physical links (undirected).
func (m *refMesh) SlowLinks() int { return len(m.slow) / 2 }

// Route returns a path from src to dst, excluding src, including dst.
// With a healthy mesh this is the X-Y (dimension-ordered) route; with
// disabled links it is the deterministic shortest detour (BFS in fixed
// E,W,S,N neighbour order). It returns an error wrapping ErrUnreachable
// when dead links partition src from dst, and a validation error when an
// endpoint lies outside the mesh.
func (m *refMesh) Route(src, dst Coord) ([]Coord, error) {
	if !m.Contains(src) || !m.Contains(dst) {
		return nil, fmt.Errorf("noc: route endpoints out of %dx%d mesh: %v -> %v", m.W, m.H, src, dst)
	}
	if len(m.dead) == 0 {
		return m.routeXY(src, dst), nil
	}
	return m.routeAvoiding(src, dst)
}

// routeXY is the dimension-ordered route of the healthy mesh.
func (m *refMesh) routeXY(src, dst Coord) []Coord {
	var path []Coord
	cur := src
	for cur.X != dst.X {
		if dst.X > cur.X {
			cur.X++
		} else {
			cur.X--
		}
		path = append(path, cur)
	}
	for cur.Y != dst.Y {
		if dst.Y > cur.Y {
			cur.Y++
		} else {
			cur.Y--
		}
		path = append(path, cur)
	}
	return path
}

// routeAvoiding finds the shortest path that skips dead links. BFS with a
// fixed neighbour order makes the detour deterministic, which the
// bit-reproducible resilience sweeps rely on.
func (m *refMesh) routeAvoiding(src, dst Coord) ([]Coord, error) {
	if src == dst {
		return nil, nil
	}
	prev := map[Coord]Coord{src: src}
	queue := []Coord{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range refDirs {
			next := Coord{X: cur.X + d.dx, Y: cur.Y + d.dy}
			if !m.Contains(next) || m.dead[refLinkKey{cur, d.dir}] {
				continue
			}
			if _, seen := prev[next]; seen {
				continue
			}
			prev[next] = cur
			if next == dst {
				var path []Coord
				for c := dst; c != src; c = prev[c] {
					path = append(path, c)
				}
				for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
					path[i], path[j] = path[j], path[i]
				}
				return path, nil
			}
			queue = append(queue, next)
		}
	}
	return nil, fmt.Errorf("noc: %v -> %v with %d dead links: %w", src, dst, m.DeadLinks(), ErrUnreachable)
}

// Hops returns the Manhattan distance between two PEs (the fault-free
// path length; detours around dead links may be longer).
func (m *refMesh) Hops(src, dst Coord) int {
	dx := src.X - dst.X
	if dx < 0 {
		dx = -dx
	}
	dy := src.Y - dst.Y
	if dy < 0 {
		dy = -dy
	}
	return dx + dy
}

// Send accumulates a unicast transfer of the given bytes along the routed
// path and returns the head latency in cycles. A co-located transfer
// (src == dst, operators time-sharing one PE) is not free: the handoff
// serialises through the PE's local port at link bandwidth, modeled as a
// loopback link — without this, packing more operators onto fewer
// surviving PEs under row faults makes traffic evaporate.
func (m *refMesh) Send(src, dst Coord, bytes float64) (int, error) {
	path, err := m.Route(src, dst)
	if err != nil {
		return 0, err
	}
	if src == dst {
		m.sends++
		m.linkLoad[refLinkKey{src, 'L'}] += bytes
		m.totalLoad += bytes
		return 0, nil
	}
	m.sends++
	prev := src
	for _, next := range path {
		k, err := refLinkOf(prev, next)
		if err != nil {
			return 0, err
		}
		m.linkLoad[k] += bytes
		m.totalLoad += bytes
		prev = next
	}
	return len(path) * m.HopLatency, nil
}

// Multicast accumulates a tree multicast from src to all dsts: shared
// prefixes of the routes carry the payload once (§IV-A's multicast
// support). Returns the worst-case head latency.
func (m *refMesh) Multicast(src Coord, dsts []Coord, bytes float64) (int, error) {
	charged := make(map[refLinkKey]bool)
	worst := 0
	m.sends += len(dsts)
	for _, dst := range dsts {
		path, err := m.Route(src, dst)
		if err != nil {
			return 0, err
		}
		prev := src
		for _, next := range path {
			k, err := refLinkOf(prev, next)
			if err != nil {
				return 0, err
			}
			if !charged[k] {
				charged[k] = true
				m.linkLoad[k] += bytes
				m.totalLoad += bytes
			}
			prev = next
		}
		if h := len(path) * m.HopLatency; h > worst {
			worst = h
		}
	}
	return worst, nil
}

// refLinkOf returns the directed link key between two adjacent routers, or
// an error for a non-adjacent pair (a malformed path).
func refLinkOf(from, to Coord) (refLinkKey, error) {
	switch {
	case to.X == from.X+1 && to.Y == from.Y:
		return refLinkKey{from, 'E'}, nil
	case to.X == from.X-1 && to.Y == from.Y:
		return refLinkKey{from, 'W'}, nil
	case to.Y == from.Y+1 && to.X == from.X:
		return refLinkKey{from, 'S'}, nil
	case to.Y == from.Y-1 && to.X == from.X:
		return refLinkKey{from, 'N'}, nil
	}
	return refLinkKey{}, fmt.Errorf("noc: non-adjacent hop %v -> %v", from, to)
}

// DrainCycles returns the cycles needed to drain the accumulated traffic:
// the busiest link bounds throughput (serialisation), which is how
// contention manifests in a wormhole mesh. Slowed links drain at their
// reduced capacity.
func (m *refMesh) DrainCycles() float64 {
	var worst float64
	for k, load := range m.linkLoad {
		cap := m.LinkBytesPerCycle
		if f, ok := m.slow[k]; ok {
			cap *= f
		}
		if c := load / cap; c > worst {
			worst = c
		}
	}
	return worst
}

// TotalBytesHops returns Σ bytes×links-traversed, the energy/utilisation
// proxy.
func (m *refMesh) TotalBytesHops() float64 {
	return m.totalLoad
}

// Utilization returns the mean link utilisation over the given cycle span.
func (m *refMesh) Utilization(cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	links := float64(m.numLinks())
	return m.TotalBytesHops() / (links * m.LinkBytesPerCycle * cycles)
}

func (m *refMesh) numLinks() int {
	// Directed links: horizontal 2·(W-1)·H, vertical 2·W·(H-1).
	return 2*(m.W-1)*m.H + 2*m.W*(m.H-1)
}

// Reset clears accumulated loads, keeping any link-fault state.
func (m *refMesh) Reset() {
	m.linkLoad = make(map[refLinkKey]float64)
	m.totalLoad = 0
	m.sends = 0
}

// Sends returns the number of routed transfers since the last Reset.
func (m *refMesh) Sends() int { return m.sends }

// EmitCounters adds the accumulated per-link occupancy (bytes routed over
// each directed link since the last Reset) plus aggregate routing
// counters to the collector. Links walk in a sorted (y, x, direction)
// order so repeated emissions are deterministic. Call before Reset; loads
// are deltas, so emitting once per drained window accumulates correctly.
func (m *refMesh) EmitCounters(c *telemetry.Collector) {
	if !c.Enabled() {
		return
	}
	keys := make([]refLinkKey, 0, len(m.linkLoad))
	for k := range m.linkLoad {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.from.Y != b.from.Y {
			return a.from.Y < b.from.Y
		}
		if a.from.X != b.from.X {
			return a.from.X < b.from.X
		}
		return a.dir < b.dir
	})
	// Sum bytes×hops over the sorted keys, not via TotalBytesHops: map
	// iteration order would perturb the float sum's last bits and break
	// the byte-identical trace guarantee.
	var bytesHops float64
	for _, k := range keys {
		c.EmitCounter(fmt.Sprintf("noc/link/%d,%d/%c", k.from.X, k.from.Y, k.dir), m.linkLoad[k])
		bytesHops += m.linkLoad[k]
	}
	c.EmitCounter("noc/bytes_hops", bytesHops)
	c.EmitCounter("noc/sends", float64(m.sends))
}
