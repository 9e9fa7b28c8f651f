package leakcheck

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"crophe/internal/parallel"
)

func TestLeakDiffReportsOnlyGrowth(t *testing.T) {
	baseline := map[string]int{"a.f": 1, "b.g": 2, "d.k": 3}
	now := map[string]int{"a.f": 1, "b.g": 4, "c.h": 1, "d.k": 2}
	want := []string{"b.g (+2)", "c.h (+1)"}
	if got := leakDiff(baseline, now); !reflect.DeepEqual(got, want) {
		t.Fatalf("leakDiff = %q; want %q", got, want)
	}
	if got := leakDiff(now, now); got != nil {
		t.Fatalf("leakDiff of equal snapshots = %q; want none", got)
	}
}

const parkedSite = "crophe/internal/leakcheck.TestSnapshotCountsParkedGoroutine"

func TestSnapshotCountsParkedGoroutine(t *testing.T) {
	before := snapshot()[parkedSite]
	started, release := make(chan struct{}), make(chan struct{})
	go func() {
		close(started)
		<-release
	}()
	<-started
	if got := snapshot()[parkedSite]; got != before+1 {
		t.Fatalf("parked: %s counted %d; want %d", parkedSite, got, before+1)
	}
	close(release)
	deadline := time.Now().Add(5 * time.Second)
	for snapshot()[parkedSite] != before {
		if time.Now().After(deadline) {
			t.Fatalf("released goroutine still counted at %s", parkedSite)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSitesSkipsIgnoredOrigins(t *testing.T) {
	var dump []string
	for i, p := range ignoredPrefixes {
		dump = append(dump, fmt.Sprintf("goroutine %d [chan receive]:\nmain.f()\n\t/src/f.go:1 +0x1\ncreated by %sworker in goroutine 1\n\t/src/f.go:2 +0x2", i+2, p))
	}
	dump = append(dump,
		"goroutine 1 [running]:\nmain.main()\n\t/src/main.go:1 +0x1",
		"goroutine 90 [select]:\nmain.g()\n\t/src/g.go:1 +0x1\ncreated by crophe/internal/serve.(*Server).loop in goroutine 1\n\t/src/g.go:2 +0x2")
	want := map[string]int{"crophe/internal/serve.(*Server).loop": 1}
	if got := sites(strings.Join(dump, "\n\n")); !reflect.DeepEqual(got, want) {
		t.Fatalf("sites = %v; want %v", got, want)
	}
}

// TestSnapshotIgnoresParallelWorkers parks a real pool helper spawned by
// parallel.ForChunk: only the goroutine the test itself started may show.
func TestSnapshotIgnoresParallelWorkers(t *testing.T) {
	prev := parallel.Workers()
	parallel.SetWorkers(2)
	defer parallel.SetWorkers(prev)

	baseline := snapshot()
	entered, release, done := make(chan struct{}, 2), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		parallel.ForChunk(2, func(lo, hi int) {
			entered <- struct{}{}
			<-release
		})
	}()
	<-entered
	<-entered // the test goroutine and the pool helper are both parked
	leaks := leakDiff(baseline, snapshot())
	close(release)
	<-done
	want := []string{"crophe/internal/leakcheck.TestSnapshotIgnoresParallelWorkers (+1)"}
	if !reflect.DeepEqual(leaks, want) {
		t.Fatalf("leaks = %q; want %q", leaks, want)
	}
}

// fakeTB records what Check does with a testing.TB.
type fakeTB struct {
	testing.TB
	cleanups []func()
	errs     []string
}

func (f *fakeTB) Helper()           {}
func (f *fakeTB) Cleanup(fn func()) { f.cleanups = append(f.cleanups, fn) }
func (f *fakeTB) Errorf(format string, a ...any) {
	f.errs = append(f.errs, fmt.Sprintf(format, a...))
}

func TestCheckPassesWhenNothingLeaks(t *testing.T) {
	f := &fakeTB{}
	Check(f)
	if len(f.cleanups) != 1 {
		t.Fatalf("Check registered %d cleanups; want 1", len(f.cleanups))
	}
	f.cleanups[0]()
	if len(f.errs) != 0 {
		t.Fatalf("Check reported a leak with nothing running: %q", f.errs)
	}
}
