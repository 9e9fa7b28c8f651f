// Package noc models the 2D mesh network-on-chip of the CROPHE
// accelerator (§IV-A): dimension-ordered (X-Y) routing of hop-by-hop
// packets between PEs, tree multicast for shared data, and per-link
// contention accounting. The simulator uses it to turn the mapper's data
// transfers into cycle counts; it replaces the paper's Orion-3-based
// model (see DESIGN.md).
//
// The mesh also carries a degraded-mode view for the fault-injection
// subsystem: individual links can be disabled (routing detours around
// them, deterministically) or slowed (their drain capacity scales down),
// so a simulated schedule reflects a partially failed interconnect.
package noc

import (
	"errors"
	"fmt"

	"crophe/internal/telemetry"
)

// ErrUnreachable reports that no route exists between two PEs once dead
// links are excluded. Callers match it with errors.Is.
var ErrUnreachable = errors.New("noc: destination unreachable")

// Coord is a PE position in the mesh.
type Coord struct{ X, Y int }

// Mesh is a W×H array of routers with bidirectional links.
type Mesh struct {
	W, H int
	// LinkBytesPerCycle is the payload capacity of one link per cycle.
	LinkBytesPerCycle float64
	// HopLatency is the per-hop router+wire latency in cycles.
	HopLatency int

	// load accumulates bytes per directed link, indexed by link().
	load []float64
	// touched marks the links charged since the last Reset, zero-byte
	// charges included, so drains and counters cover exactly the links a
	// transfer crossed; touchedList holds their indices in charge order.
	touched     []bool
	touchedList []int
	// totalLoad is the running Σ over load, maintained at the charge
	// site in charge order.
	totalLoad float64
	// sends counts routed transfers (unicasts plus multicast legs) since
	// the last Reset.
	sends int
	// names caches each link's counter name, formatted on its first
	// emission.
	names []string

	// dead marks directed links that are down; routing detours around
	// them. slow holds a directed link's capacity factor in (0, 1], or 0
	// at full speed. Both stay nil until the first fault; nDead and
	// nSlow count the directed links they mark.
	dead         []bool
	slow         []float64
	nDead, nSlow int
}

// Link directions, numbered in the byte order of their labels (E, L, N,
// S, W; L is a PE's loopback port). A directed link's index is
// router*numDirs + direction with routers row-major, so ascending index
// order is (y, x, label) order.
const (
	dirE = iota
	dirL
	dirN
	dirS
	dirW
	numDirs
)

const dirLabels = "ELNSW"

// NewMesh creates a mesh with the given dimensions and link capacity.
func NewMesh(w, h int, linkBytesPerCycle float64, hopLatency int) (*Mesh, error) {
	if w < 1 || h < 1 {
		return nil, fmt.Errorf("noc: mesh dimensions %dx%d invalid", w, h)
	}
	if linkBytesPerCycle <= 0 {
		return nil, fmt.Errorf("noc: link capacity must be positive")
	}
	if hopLatency < 1 {
		hopLatency = 1
	}
	return &Mesh{
		W: w, H: h,
		LinkBytesPerCycle: linkBytesPerCycle,
		HopLatency:        hopLatency,
		load:              make([]float64, w*h*numDirs),
		touched:           make([]bool, w*h*numDirs),
	}, nil
}

// link is the index of the directed link leaving router c in direction
// dir.
func (m *Mesh) link(c Coord, dir int) int { return (c.Y*m.W+c.X)*numDirs + dir }

// PEIndex maps a linear PE id (row-major) to its coordinate.
func (m *Mesh) PEIndex(id int) Coord {
	return Coord{X: id % m.W, Y: id / m.W}
}

// Contains reports whether c is inside the mesh.
func (m *Mesh) Contains(c Coord) bool {
	return c.X >= 0 && c.X < m.W && c.Y >= 0 && c.Y < m.H
}

// step offsets in the deterministic neighbour order used by the BFS
// detour router, with each direction's reverse.
var dirs = []struct {
	dx, dy   int
	dir, rev int
}{
	{1, 0, dirE, dirW}, {-1, 0, dirW, dirE}, {0, 1, dirS, dirN}, {0, -1, dirN, dirS},
}

// DisableLink marks the physical link leaving from in direction dir as
// down, in both directions. Routing detours around disabled links; loads
// already accumulated on them are kept (they were routed while the link
// was up).
func (m *Mesh) DisableLink(from Coord, dir byte) error {
	k, rev, err := m.linkPair(from, dir)
	if err != nil {
		return err
	}
	if m.dead == nil {
		m.dead = make([]bool, len(m.load))
	}
	for _, i := range [2]int{k, rev} {
		if !m.dead[i] {
			m.dead[i] = true
			m.nDead++
		}
	}
	return nil
}

// SlowLink scales the capacity of the physical link leaving from in
// direction dir (both directions) by factor in (0, 1].
func (m *Mesh) SlowLink(from Coord, dir byte, factor float64) error {
	if factor <= 0 || factor > 1 {
		return fmt.Errorf("noc: slow-link factor %v outside (0, 1]", factor)
	}
	k, rev, err := m.linkPair(from, dir)
	if err != nil {
		return err
	}
	if m.slow == nil {
		m.slow = make([]float64, len(m.load))
	}
	for _, i := range [2]int{k, rev} {
		if m.slow[i] == 0 {
			m.nSlow++
		}
		m.slow[i] = factor
	}
	return nil
}

// linkPair validates a (coord, direction) link reference and returns the
// directed link's index plus its reverse's.
func (m *Mesh) linkPair(from Coord, dir byte) (int, int, error) {
	if !m.Contains(from) {
		return 0, 0, fmt.Errorf("noc: link source %v outside %dx%d mesh", from, m.W, m.H)
	}
	for _, d := range dirs {
		if dirLabels[d.dir] != dir {
			continue
		}
		to := Coord{X: from.X + d.dx, Y: from.Y + d.dy}
		if !m.Contains(to) {
			return 0, 0, fmt.Errorf("noc: no %c link at %v (mesh edge)", dir, from)
		}
		return m.link(from, d.dir), m.link(to, d.rev), nil
	}
	return 0, 0, fmt.Errorf("noc: unknown link direction %q", string(dir))
}

// DeadLinks returns the number of disabled physical links (undirected).
func (m *Mesh) DeadLinks() int { return m.nDead / 2 }

// SlowLinks returns the number of slowed physical links (undirected).
func (m *Mesh) SlowLinks() int { return m.nSlow / 2 }

// checkEndpoints rejects a route whose endpoints lie outside the mesh.
func (m *Mesh) checkEndpoints(src, dst Coord) error {
	if !m.Contains(src) || !m.Contains(dst) {
		return fmt.Errorf("noc: route endpoints out of %dx%d mesh: %v -> %v", m.W, m.H, src, dst)
	}
	return nil
}

// Route returns a path from src to dst, excluding src, including dst.
// With a healthy mesh this is the X-Y (dimension-ordered) route; with
// disabled links it is the deterministic shortest detour (BFS in fixed
// E,W,S,N neighbour order). It returns an error wrapping ErrUnreachable
// when dead links partition src from dst, and a validation error when an
// endpoint lies outside the mesh.
func (m *Mesh) Route(src, dst Coord) ([]Coord, error) {
	if err := m.checkEndpoints(src, dst); err != nil {
		return nil, err
	}
	if m.nDead > 0 {
		return m.routeAvoiding(src, dst)
	}
	var path []Coord
	for cur := src; ; {
		if _, ok := stepXY(&cur, dst); !ok {
			return path, nil
		}
		path = append(path, cur)
	}
}

// stepXY advances cur one hop along the dimension-ordered (X, then Y)
// route toward dst and returns the direction of the link it crossed; ok
// is false once cur is dst. Route and Send both walk with it, so the
// healthy mesh has a single routing rule.
func stepXY(cur *Coord, dst Coord) (dir int, ok bool) {
	switch {
	case cur.X < dst.X:
		cur.X++
		return dirE, true
	case cur.X > dst.X:
		cur.X--
		return dirW, true
	case cur.Y < dst.Y:
		cur.Y++
		return dirS, true
	case cur.Y > dst.Y:
		cur.Y--
		return dirN, true
	}
	return 0, false
}

// routeAvoiding finds the shortest path that skips dead links. BFS with a
// fixed neighbour order makes the detour deterministic, which the
// bit-reproducible resilience sweeps rely on.
func (m *Mesh) routeAvoiding(src, dst Coord) ([]Coord, error) {
	if src == dst {
		return nil, nil
	}
	prev := map[Coord]Coord{src: src}
	queue := []Coord{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, d := range dirs {
			next := Coord{X: cur.X + d.dx, Y: cur.Y + d.dy}
			if !m.Contains(next) || m.dead[m.link(cur, d.dir)] {
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
func (m *Mesh) Hops(src, dst Coord) int {
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

// charge adds bytes to link i.
func (m *Mesh) charge(i int, bytes float64) {
	if !m.touched[i] {
		m.touched[i] = true
		m.touchedList = append(m.touchedList, i)
	}
	m.load[i] += bytes
	m.totalLoad += bytes
}

// Send accumulates a unicast transfer of the given bytes along the routed
// path and returns the head latency in cycles. A co-located transfer
// (src == dst, operators time-sharing one PE) is not free: the handoff
// serialises through the PE's local port at link bandwidth, modeled as a
// loopback link — without this, packing more operators onto fewer
// surviving PEs under row faults makes traffic evaporate. On a healthy
// mesh the links are charged during the X-Y walk, without building the
// path.
func (m *Mesh) Send(src, dst Coord, bytes float64) (int, error) {
	if err := m.checkEndpoints(src, dst); err != nil {
		return 0, err
	}
	if src == dst {
		m.sends++
		m.charge(m.link(src, dirL), bytes)
		return 0, nil
	}
	if m.nDead == 0 {
		m.sends++
		hops := 0
		for cur := src; ; hops++ {
			from := cur
			dir, ok := stepXY(&cur, dst)
			if !ok {
				return hops * m.HopLatency, nil
			}
			m.charge(m.link(from, dir), bytes)
		}
	}
	path, err := m.routeAvoiding(src, dst)
	if err != nil {
		return 0, err
	}
	m.sends++
	prev := src
	for _, next := range path {
		dir, err := hopDir(prev, next)
		if err != nil {
			return 0, err
		}
		m.charge(m.link(prev, dir), bytes)
		prev = next
	}
	return len(path) * m.HopLatency, nil
}

// Multicast accumulates a tree multicast from src to all dsts: shared
// prefixes of the routes carry the payload once (§IV-A's multicast
// support). Returns the worst-case head latency.
func (m *Mesh) Multicast(src Coord, dsts []Coord, bytes float64) (int, error) {
	charged := make([]bool, len(m.load))
	worst := 0
	m.sends += len(dsts)
	for _, dst := range dsts {
		path, err := m.Route(src, dst)
		if err != nil {
			return 0, err
		}
		prev := src
		for _, next := range path {
			dir, err := hopDir(prev, next)
			if err != nil {
				return 0, err
			}
			if i := m.link(prev, dir); !charged[i] {
				charged[i] = true
				m.charge(i, bytes)
			}
			prev = next
		}
		if h := len(path) * m.HopLatency; h > worst {
			worst = h
		}
	}
	return worst, nil
}

// hopDir returns the direction of the link between two adjacent routers,
// or an error for a non-adjacent pair (a malformed path).
func hopDir(from, to Coord) (int, error) {
	switch {
	case to.X == from.X+1 && to.Y == from.Y:
		return dirE, nil
	case to.X == from.X-1 && to.Y == from.Y:
		return dirW, nil
	case to.Y == from.Y+1 && to.X == from.X:
		return dirS, nil
	case to.Y == from.Y-1 && to.X == from.X:
		return dirN, nil
	}
	return 0, fmt.Errorf("noc: non-adjacent hop %v -> %v", from, to)
}

// DrainCycles returns the cycles needed to drain the accumulated traffic:
// the busiest link bounds throughput (serialisation), which is how
// contention manifests in a wormhole mesh. Slowed links drain at their
// reduced capacity.
func (m *Mesh) DrainCycles() float64 {
	var worst float64
	for _, i := range m.touchedList {
		cap := m.LinkBytesPerCycle
		if m.slow != nil && m.slow[i] != 0 {
			cap *= m.slow[i]
		}
		if c := m.load[i] / cap; c > worst {
			worst = c
		}
	}
	return worst
}

// TotalBytesHops returns Σ bytes×links-traversed, the energy/utilisation
// proxy.
func (m *Mesh) TotalBytesHops() float64 {
	return m.totalLoad
}

// Utilization returns the mean link utilisation over the given cycle span.
func (m *Mesh) Utilization(cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	links := float64(m.numLinks())
	return m.TotalBytesHops() / (links * m.LinkBytesPerCycle * cycles)
}

func (m *Mesh) numLinks() int {
	// Directed links: horizontal 2·(W-1)·H, vertical 2·W·(H-1).
	return 2*(m.W-1)*m.H + 2*m.W*(m.H-1)
}

// Reset clears accumulated loads, keeping any link-fault state.
func (m *Mesh) Reset() {
	for _, i := range m.touchedList {
		m.load[i] = 0
		m.touched[i] = false
	}
	m.touchedList = m.touchedList[:0]
	m.totalLoad = 0
	m.sends = 0
}

// Sends returns the number of routed transfers since the last Reset.
func (m *Mesh) Sends() int { return m.sends }

// EmitCounters adds the accumulated per-link occupancy (bytes routed over
// each directed link since the last Reset) plus aggregate routing
// counters to the collector. Links are emitted in index order, which is
// (y, x, direction) order, so repeated emissions are deterministic. Call
// before Reset; loads are deltas, so emitting once per drained window
// accumulates correctly.
func (m *Mesh) EmitCounters(c *telemetry.Collector) {
	if !c.Enabled() {
		return
	}
	if m.names == nil {
		m.names = make([]string, len(m.load))
	}
	var bytesHops float64
	for i, load := range m.load {
		if !m.touched[i] {
			continue
		}
		if m.names[i] == "" {
			r := i / numDirs
			m.names[i] = fmt.Sprintf("noc/link/%d,%d/%c", r%m.W, r/m.W, dirLabels[i%numDirs])
		}
		c.EmitCounter(m.names[i], load)
		bytesHops += load
	}
	c.EmitCounter("noc/bytes_hops", bytesHops)
	c.EmitCounter("noc/sends", float64(m.sends))
}
