package noc

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"crophe/internal/telemetry"
)

// sameErr reports whether two errors are both nil or carry the same
// message.
func sameErr(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Error() == b.Error()
}

// compareMeshes checks every observable of the dense mesh against the
// reference: drain, bytes×hops, sends, fault counts and the emitted
// counter set, bit for bit.
func compareMeshes(t *testing.T, ctx string, m *Mesh, ref *refMesh) {
	t.Helper()
	if got, want := m.DrainCycles(), ref.DrainCycles(); got != want {
		t.Fatalf("%s: DrainCycles %v, reference %v", ctx, got, want)
	}
	if got, want := m.TotalBytesHops(), ref.TotalBytesHops(); got != want {
		t.Fatalf("%s: TotalBytesHops %v, reference %v", ctx, got, want)
	}
	if m.Sends() != ref.Sends() || m.DeadLinks() != ref.DeadLinks() || m.SlowLinks() != ref.SlowLinks() {
		t.Fatalf("%s: sends/dead/slow %d/%d/%d, reference %d/%d/%d", ctx,
			m.Sends(), m.DeadLinks(), m.SlowLinks(), ref.Sends(), ref.DeadLinks(), ref.SlowLinks())
	}
	a, b := telemetry.New(), telemetry.New()
	m.EmitCounters(a)
	ref.EmitCounters(b)
	if got, want := a.Counters(), b.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: counters\n%v\nreference\n%v", ctx, got, want)
	}
}

// TestMeshMatchesReference drives the dense mesh and the map-based
// reference with the same seeded traffic on random meshes (plus the
// 64×1 and 8×8 shapes the simulator uses), with dead and slow links,
// loopback and zero-byte sends, multicasts, out-of-mesh endpoints and
// repeated resets, and compares every result bit for bit.
func TestMeshMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	coord := func(w, h int) Coord {
		// Mostly inside the mesh, occasionally one step outside it.
		return Coord{X: r.Intn(w+1) - r.Intn(2), Y: r.Intn(h+1) - r.Intn(2)}
	}
	for trial := 0; trial < 400; trial++ {
		w, h := 1+r.Intn(9), 1+r.Intn(9)
		switch trial {
		case 0:
			w, h = 64, 1
		case 1:
			w, h = 8, 8
		}
		capacity := float64(1 + r.Intn(128))
		hop := r.Intn(3)
		m, err := NewMesh(w, h, capacity, hop)
		ref, refErr := newRefMesh(w, h, capacity, hop)
		if err != nil || refErr != nil {
			t.Fatalf("trial %d: NewMesh %v, reference %v", trial, err, refErr)
		}
		// Faults: a few dead and slow links on most trials, with
		// invalid references mixed in.
		if trial > 1 && r.Intn(4) != 0 {
			for i := r.Intn(4); i > 0; i-- {
				c, dir := coord(w, h), "ENSWLQ"[r.Intn(6)]
				if err, refErr := m.DisableLink(c, dir), ref.DisableLink(c, dir); !sameErr(err, refErr) {
					t.Fatalf("trial %d: DisableLink(%v, %c) %v, reference %v", trial, c, dir, err, refErr)
				}
			}
			for i := r.Intn(4); i > 0; i-- {
				c, dir, f := coord(w, h), "ENSWLQ"[r.Intn(6)], []float64{0.25, 0.5, 1, 0, 1.5}[r.Intn(5)]
				if err, refErr := m.SlowLink(c, dir, f), ref.SlowLink(c, dir, f); !sameErr(err, refErr) {
					t.Fatalf("trial %d: SlowLink(%v, %c, %v) %v, reference %v", trial, c, dir, f, err, refErr)
				}
			}
		}
		for op := 0; op < 60; op++ {
			bytes := r.Float64() * 4096
			if r.Intn(8) == 0 {
				bytes = 0
			}
			src, dst := coord(w, h), coord(w, h)
			switch k := r.Intn(20); {
			case k == 0:
				m.Reset()
				ref.Reset()
			case k == 1:
				dsts := []Coord{coord(w, h), coord(w, h), coord(w, h)}
				lat, err := m.Multicast(src, dsts, bytes)
				refLat, refErr := ref.Multicast(src, dsts, bytes)
				if lat != refLat || !sameErr(err, refErr) {
					t.Fatalf("trial %d op %d: Multicast %d %v, reference %d %v", trial, op, lat, err, refLat, refErr)
				}
			default:
				if k == 2 {
					dst = src
				}
				path, err := m.Route(src, dst)
				refPath, refErr := ref.Route(src, dst)
				if !reflect.DeepEqual(path, refPath) || !sameErr(err, refErr) {
					t.Fatalf("trial %d op %d: Route %v→%v = %v %v, reference %v %v", trial, op, src, dst, path, err, refPath, refErr)
				}
				lat, err := m.Send(src, dst, bytes)
				refLat, refErr := ref.Send(src, dst, bytes)
				if lat != refLat || !sameErr(err, refErr) {
					t.Fatalf("trial %d op %d: Send %v→%v = %d %v, reference %d %v", trial, op, src, dst, lat, err, refLat, refErr)
				}
			}
			if op%10 == 9 {
				compareMeshes(t, fmt.Sprintf("trial %d op %d", trial, op), m, ref)
			}
		}
		compareMeshes(t, fmt.Sprintf("end of trial %d", trial), m, ref)
	}
}

// TestMeshCountersAccumulateAcrossResets emits every drained window of
// one mesh into one collector, as the simulator does per group, so the
// cached link names are reused across resets.
func TestMeshCountersAccumulateAcrossResets(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	m, _ := NewMesh(8, 8, 64, 1)
	ref, _ := newRefMesh(8, 8, 64, 1)
	a, b := telemetry.New(), telemetry.New()
	for window := 0; window < 50; window++ {
		m.Reset()
		ref.Reset()
		for i := r.Intn(12); i >= 0; i-- {
			src, dst := Coord{r.Intn(8), r.Intn(8)}, Coord{r.Intn(8), r.Intn(8)}
			bytes := float64(r.Intn(3)) * r.Float64() * 1000
			mustSend(t, m, src, dst, bytes)
			if _, err := ref.Send(src, dst, bytes); err != nil {
				t.Fatal(err)
			}
		}
		m.EmitCounters(a)
		ref.EmitCounters(b)
	}
	if got, want := a.Counters(), b.Counters(); !reflect.DeepEqual(got, want) {
		t.Fatalf("accumulated counters differ from the reference")
	}
}

// TestHealthySendDoesNotAllocate pins the healthy mesh's hot path:
// unicast, loopback and Reset allocate nothing.
func TestHealthySendDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	m := mustMesh(t, 8, 8)
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := m.Send(Coord{0, 0}, Coord{7, 7}, 512); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Send(Coord{3, 3}, Coord{3, 3}, 64); err != nil {
			t.Fatal(err)
		}
		_ = m.DrainCycles()
		m.Reset()
	})
	if allocs != 0 {
		t.Fatalf("healthy Send+Reset allocated %v times per run, want 0", allocs)
	}
}
