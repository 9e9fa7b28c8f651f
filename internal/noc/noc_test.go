package noc

import (
	"errors"
	"testing"
	"testing/quick"

	"crophe/internal/telemetry"
)

func mustMesh(t *testing.T, w, h int) *Mesh {
	t.Helper()
	m, err := NewMesh(w, h, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func mustRoute(t *testing.T, m *Mesh, src, dst Coord) []Coord {
	t.Helper()
	path, err := m.Route(src, dst)
	if err != nil {
		t.Fatalf("route %v -> %v: %v", src, dst, err)
	}
	return path
}

func mustSend(t *testing.T, m *Mesh, src, dst Coord, bytes float64) int {
	t.Helper()
	lat, err := m.Send(src, dst, bytes)
	if err != nil {
		t.Fatalf("send %v -> %v: %v", src, dst, err)
	}
	return lat
}

func TestNewMeshValidation(t *testing.T) {
	if _, err := NewMesh(0, 4, 64, 1); err == nil {
		t.Error("zero width should fail")
	}
	if _, err := NewMesh(4, 4, 0, 1); err == nil {
		t.Error("zero link capacity should fail")
	}
	m, err := NewMesh(4, 4, 64, 0)
	if err != nil || m.HopLatency != 1 {
		t.Error("hop latency should clamp to 1")
	}
}

func TestPEIndexRowMajor(t *testing.T) {
	m := mustMesh(t, 8, 4)
	if c := m.PEIndex(0); c != (Coord{0, 0}) {
		t.Errorf("PE 0 at %v", c)
	}
	if c := m.PEIndex(7); c != (Coord{7, 0}) {
		t.Errorf("PE 7 at %v", c)
	}
	if c := m.PEIndex(8); c != (Coord{0, 1}) {
		t.Errorf("PE 8 at %v", c)
	}
	if c := m.PEIndex(31); c != (Coord{7, 3}) {
		t.Errorf("PE 31 at %v", c)
	}
}

func TestRouteXY(t *testing.T) {
	m := mustMesh(t, 8, 8)
	path := mustRoute(t, m, Coord{1, 1}, Coord{4, 3})
	want := []Coord{{2, 1}, {3, 1}, {4, 1}, {4, 2}, {4, 3}}
	if len(path) != len(want) {
		t.Fatalf("path %v want %v", path, want)
	}
	for i := range want {
		if path[i] != want[i] {
			t.Fatalf("path[%d] = %v want %v", i, path[i], want[i])
		}
	}
	// Self-route is empty.
	if p := mustRoute(t, m, Coord{2, 2}, Coord{2, 2}); len(p) != 0 {
		t.Fatalf("self route %v", p)
	}
}

func TestRoutePropertyLengthIsManhattan(t *testing.T) {
	m := mustMesh(t, 8, 8)
	prop := func(a, b uint8) bool {
		src := m.PEIndex(int(a) % 64)
		dst := m.PEIndex(int(b) % 64)
		path, err := m.Route(src, dst)
		return err == nil && len(path) == m.Hops(src, dst)
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestSendAccumulatesAndDrains(t *testing.T) {
	m := mustMesh(t, 4, 1)
	lat := mustSend(t, m, Coord{0, 0}, Coord{3, 0}, 640)
	if lat != 3 {
		t.Fatalf("latency %d want 3", lat)
	}
	// 640 bytes over each of three links at 64 B/cycle → 10 cycles drain.
	if d := m.DrainCycles(); d != 10 {
		t.Fatalf("drain %f want 10", d)
	}
	// Two flows sharing the middle link contend.
	m.Reset()
	mustSend(t, m, Coord{0, 0}, Coord{2, 0}, 640)
	mustSend(t, m, Coord{1, 0}, Coord{3, 0}, 640)
	if d := m.DrainCycles(); d != 20 {
		t.Fatalf("contended drain %f want 20 (shared link)", d)
	}
}

func TestMulticastSharesPrefix(t *testing.T) {
	m := mustMesh(t, 4, 4)
	// Unicast to two destinations down the same column duplicates the
	// shared prefix...
	mustSend(t, m, Coord{0, 0}, Coord{0, 2}, 100)
	mustSend(t, m, Coord{0, 0}, Coord{0, 3}, 100)
	unicast := m.TotalBytesHops()
	m.Reset()
	// ...multicast pays it once.
	if _, err := m.Multicast(Coord{0, 0}, []Coord{{0, 2}, {0, 3}}, 100); err != nil {
		t.Fatal(err)
	}
	multicast := m.TotalBytesHops()
	if multicast >= unicast {
		t.Fatalf("multicast %.0f not cheaper than unicast %.0f", multicast, unicast)
	}
	if multicast != 300 { // 3 links × 100 bytes
		t.Fatalf("multicast bytes-hops %.0f want 300", multicast)
	}
}

func TestUtilization(t *testing.T) {
	m := mustMesh(t, 2, 2)
	mustSend(t, m, Coord{0, 0}, Coord{1, 1}, 64)
	// Perfect utilisation would move 8 links × 64 B per cycle.
	u := m.Utilization(1)
	if u <= 0 || u > 1 {
		t.Fatalf("utilisation %f", u)
	}
	if m.Utilization(0) != 0 {
		t.Fatal("zero-cycle utilisation")
	}
}

func TestRouteOutsideMeshIsError(t *testing.T) {
	m := mustMesh(t, 2, 2)
	if _, err := m.Route(Coord{0, 0}, Coord{5, 5}); err == nil {
		t.Fatal("out-of-mesh destination should return an error")
	}
	if _, err := m.Route(Coord{-1, 0}, Coord{1, 1}); err == nil {
		t.Fatal("out-of-mesh source should return an error")
	}
	if _, err := m.Send(Coord{0, 0}, Coord{9, 9}, 64); err == nil {
		t.Fatal("out-of-mesh send should return an error")
	}
	if _, err := m.Multicast(Coord{0, 0}, []Coord{{0, 1}, {7, 7}}, 64); err == nil {
		t.Fatal("out-of-mesh multicast leg should return an error")
	}
}

func TestLinkOfNonAdjacentIsError(t *testing.T) {
	if _, err := hopDir(Coord{0, 0}, Coord{2, 0}); err == nil {
		t.Fatal("non-adjacent pair should return an error")
	}
	if _, err := hopDir(Coord{0, 0}, Coord{1, 1}); err == nil {
		t.Fatal("diagonal pair should return an error")
	}
	if d, err := hopDir(Coord{0, 0}, Coord{1, 0}); err != nil || dirLabels[d] != 'E' {
		t.Fatalf("adjacent pair: direction %d err %v", d, err)
	}
}

func TestDisableLinkValidation(t *testing.T) {
	m := mustMesh(t, 4, 4)
	if err := m.DisableLink(Coord{9, 9}, 'E'); err == nil {
		t.Fatal("source outside mesh should fail")
	}
	if err := m.DisableLink(Coord{3, 0}, 'E'); err == nil {
		t.Fatal("link off the mesh edge should fail")
	}
	if err := m.DisableLink(Coord{0, 0}, 'Q'); err == nil {
		t.Fatal("unknown direction should fail")
	}
	if err := m.DisableLink(Coord{1, 1}, 'E'); err != nil {
		t.Fatal(err)
	}
	if m.DeadLinks() != 1 {
		t.Fatalf("dead links %d want 1", m.DeadLinks())
	}
}

func TestRouteDetoursAroundDeadLink(t *testing.T) {
	m := mustMesh(t, 4, 2)
	// Kill the direct E link out of (1,0); the X-Y route (0,0)→(3,0)
	// must detour through row 1.
	if err := m.DisableLink(Coord{1, 0}, 'E'); err != nil {
		t.Fatal(err)
	}
	path := mustRoute(t, m, Coord{0, 0}, Coord{3, 0})
	if len(path) <= m.Hops(Coord{0, 0}, Coord{3, 0}) {
		t.Fatalf("detour path %v not longer than Manhattan distance", path)
	}
	for i := 1; i < len(path); i++ {
		if m.Hops(path[i-1], path[i]) != 1 {
			t.Fatalf("non-adjacent hop in detour: %v", path)
		}
	}
	// Determinism: the same query yields the identical path.
	again := mustRoute(t, m, Coord{0, 0}, Coord{3, 0})
	if len(again) != len(path) {
		t.Fatalf("detour not deterministic: %v vs %v", path, again)
	}
	for i := range path {
		if path[i] != again[i] {
			t.Fatalf("detour not deterministic: %v vs %v", path, again)
		}
	}
	// Send still works over the detour.
	if _, err := m.Send(Coord{0, 0}, Coord{3, 0}, 64); err != nil {
		t.Fatal(err)
	}
}

func TestRouteUnreachable(t *testing.T) {
	m := mustMesh(t, 2, 1)
	if err := m.DisableLink(Coord{0, 0}, 'E'); err != nil {
		t.Fatal(err)
	}
	_, err := m.Route(Coord{0, 0}, Coord{1, 0})
	if !errors.Is(err, ErrUnreachable) {
		t.Fatalf("want ErrUnreachable, got %v", err)
	}
	if _, err := m.Send(Coord{0, 0}, Coord{1, 0}, 64); !errors.Is(err, ErrUnreachable) {
		t.Fatalf("send over partitioned mesh: want ErrUnreachable, got %v", err)
	}
}

func TestSlowLinkStretchesDrain(t *testing.T) {
	m := mustMesh(t, 2, 1)
	if err := m.SlowLink(Coord{0, 0}, 'E', 0); err == nil {
		t.Fatal("zero factor should fail")
	}
	if err := m.SlowLink(Coord{0, 0}, 'E', 0.5); err != nil {
		t.Fatal(err)
	}
	if m.SlowLinks() != 1 {
		t.Fatalf("slow links %d want 1", m.SlowLinks())
	}
	mustSend(t, m, Coord{0, 0}, Coord{1, 0}, 640)
	// 640 B at half of 64 B/cycle → 20 cycles instead of 10.
	if d := m.DrainCycles(); d != 20 {
		t.Fatalf("slowed drain %f want 20", d)
	}
}

func TestEmitCountersPerLink(t *testing.T) {
	m := mustMesh(t, 2, 2)
	mustSend(t, m, Coord{0, 0}, Coord{1, 0}, 128) // one E hop
	if _, err := m.Multicast(Coord{0, 0}, []Coord{{0, 1}, {1, 1}}, 64); err != nil {
		t.Fatal(err)
	}
	if m.Sends() != 3 {
		t.Fatalf("sends %d want 3", m.Sends())
	}

	tel := telemetry.New()
	m.EmitCounters(tel)
	// Unicast 128 B plus the multicast's E-leg toward (1,1): 64 B.
	if got := tel.Counter("noc/link/0,0/E"); got != 192 {
		t.Fatalf("E-link occupancy %v want 192", got)
	}
	if got := tel.Counter("noc/sends"); got != 3 {
		t.Fatalf("noc/sends %v want 3", got)
	}
	if got, want := tel.Counter("noc/bytes_hops"), m.TotalBytesHops(); got != want {
		t.Fatalf("noc/bytes_hops %v want %v", got, want)
	}

	// Nil collector: no-op, no panic (the disabled path).
	m.EmitCounters(nil)

	// Loads are deltas: reset then re-emit accumulates windows.
	m.Reset()
	mustSend(t, m, Coord{0, 0}, Coord{1, 0}, 72)
	m.EmitCounters(tel)
	if got := tel.Counter("noc/link/0,0/E"); got != 264 {
		t.Fatalf("accumulated E-link occupancy %v want 264", got)
	}
	if m.Sends() != 1 {
		t.Fatalf("sends after reset %d want 1", m.Sends())
	}
}
