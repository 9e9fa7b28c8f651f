package integrity

import (
	"errors"
	"math/bits"
	"reflect"
	"strings"
	"sync"
	"testing"

	"crophe/internal/telemetry"
)

func buffers(n, words int) [][]uint64 {
	out := make([][]uint64, n)
	for i := range out {
		out[i] = make([]uint64, words)
		for j := range out[i] {
			out[i][j] = uint64(i*words + j)
		}
	}
	return out
}

// corruptAll runs a fresh (seed, rate) injector over a fixed buffer
// sequence and returns the corrupted buffers and per-call flip counts.
func corruptAll(seed int64, rate float64) ([][]uint64, []int) {
	bufs := buffers(8, 64)
	flips := make([]int, len(bufs))
	in := NewInjector(seed, rate)
	for i, b := range bufs {
		flips[i] = in.Corrupt(b)
	}
	return bufs, flips
}

// diffBits counts the bits that differ between two buffer sets.
func diffBits(a, b [][]uint64) int {
	n := 0
	for i := range a {
		for j := range a[i] {
			n += bits.OnesCount64(a[i][j] ^ b[i][j])
		}
	}
	return n
}

func TestInjectorDeterministicPerSeed(t *testing.T) {
	a, fa := corruptAll(7, 0.1)
	b, fb := corruptAll(7, 0.1)
	if !reflect.DeepEqual(a, b) || !reflect.DeepEqual(fa, fb) {
		t.Fatal("same (seed, rate) over the same buffers flipped different bits")
	}
	if diffBits(a, buffers(8, 64)) == 0 {
		t.Fatal("rate 0.1 over 512 words flipped nothing")
	}
	if c, _ := corruptAll(8, 0.1); reflect.DeepEqual(a, c) {
		t.Fatal("a different seed flipped the same bits")
	}
}

func TestArmCorruptsExactlyNextNonEmptyCalls(t *testing.T) {
	in := NewInjector(3, 1)
	in.Arm(2)
	buf := make([]uint64, 4)
	got := []int{in.Corrupt(buf), in.Corrupt(nil), in.Corrupt(buf), in.Corrupt(buf)}
	if want := []int{4, 0, 4, 0}; !reflect.DeepEqual(got, want) {
		t.Fatalf("flips per call after Arm(2) = %v; want %v (empty calls must not spend the arm)", got, want)
	}
	if in.Flips() != 8 {
		t.Fatalf("Flips() = %d; want 8", in.Flips())
	}
}

func TestPersistFlipsEvenAtRateZero(t *testing.T) {
	in := NewInjector(5, 0)
	buf := make([]uint64, 16)
	if n := in.Corrupt(buf); n != 0 {
		t.Fatalf("rate 0 without persist flipped %d bits", n)
	}
	in.Persist(true)
	if !in.Persistent() {
		t.Fatal("Persistent() = false after Persist(true)")
	}
	for call := 0; call < 3; call++ {
		prev := append([]uint64(nil), buf...)
		n := in.Corrupt(buf)
		if d := diffBits([][]uint64{prev}, [][]uint64{buf}); n != 1 || d != 1 {
			t.Fatalf("persist call %d reported %d flips and toggled %d bits; want 1 and 1", call, n, d)
		}
	}
}

func TestRateClamped(t *testing.T) {
	for _, c := range []struct{ rate, want float64 }{{-0.5, 0}, {0.25, 0.25}, {1.5, 1}} {
		if got := NewInjector(1, c.rate).rate; got != c.want {
			t.Errorf("NewInjector rate %v stored as %v; want %v", c.rate, got, c.want)
		}
	}
	// At the clamped ceiling every word takes exactly one flip.
	buf := make([]uint64, 32)
	if n := NewInjector(1, 1.5).Corrupt(buf); n != len(buf) {
		t.Fatalf("rate 1.5 flipped %d bits; want %d", n, len(buf))
	}
	for i, w := range buf {
		if bits.OnesCount64(w) != 1 {
			t.Fatalf("word %d = %#x; want exactly one flipped bit", i, w)
		}
	}
}

func TestCheckerCountersExactUnderConcurrency(t *testing.T) {
	const goroutines, per = 8, 500
	c := NewChecker(11)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Checked()
				c.Detected()
				c.Recomputed()
				if i%10 == 0 {
					c.Escalate("ntt.Forward", 3)
				}
			}
		}()
	}
	wg.Wait()
	want := Stats{Checks: goroutines * per, Detected: goroutines * per, Recomputed: goroutines * per, Escalated: goroutines * per / 10}
	if got := c.Stats(); got != want {
		t.Fatalf("Stats = %+v; want %+v", got, want)
	}
}

func TestEscalateCarriesKernelSeedAttempts(t *testing.T) {
	c := NewChecker(42, WithMaxRecompute(1))
	if c.Seed() != 42 || c.MaxRecompute() != 1 {
		t.Fatalf("Seed, MaxRecompute = %d, %d; want 42, 1", c.Seed(), c.MaxRecompute())
	}
	var err error = c.Escalate("rns.ModUp", 2)
	var ie *Error
	if !errors.As(err, &ie) {
		t.Fatalf("Escalate returned %T; want *Error", err)
	}
	if *ie != (Error{Kernel: "rns.ModUp", Seed: 42, Attempts: 2}) {
		t.Fatalf("Escalate = %+v; want kernel rns.ModUp, seed 42, attempts 2", *ie)
	}
	if !strings.Contains(err.Error(), "fault seed 42") {
		t.Fatalf("error %q does not carry the fault seed", err)
	}
	if s := c.Stats(); s != (Stats{Escalated: 1}) {
		t.Fatalf("Stats after one Escalate = %+v; want exactly one escalation", s)
	}
}

func TestEmitCounters(t *testing.T) {
	c := NewChecker(1)
	c.Checked()
	c.Escalate("ntt.Forward", 3)
	c.EmitCounters(nil) // a nil collector is disabled: no-op, no panic

	tel := telemetry.NewCounters()
	c.EmitCounters(tel)
	want := map[string]float64{
		"integrity/checks": 1, "integrity/detected": 0,
		"integrity/recomputed": 0, "integrity/escalated": 1,
	}
	if got := tel.CounterMap(); !reflect.DeepEqual(got, want) {
		t.Fatalf("counters = %v; want %v", got, want)
	}
}
