package bench

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"crophe/internal/integrity"
	"crophe/internal/modmath"
	"crophe/internal/ntt"
)

// maxIntegrityOverheadFrac is the ceiling on the measured ABFT overhead
// of the checked four-step transform: the fused-checksum design budgets
// the verification at 3% of the unchecked kernel, and
// TestKernelIntegrityFast fails when every attempt measures above it.
const maxIntegrityOverheadFrac = 0.03

// IntegrityRow is one measured plain-vs-checked pairing of the
// four-step forward transform: the ABFT-verified kernel against the
// unchecked one on the same table and input, and the implied relative
// overhead of carrying the checksum.
type IntegrityRow struct {
	N            int
	PlainNs      float64
	CheckedNs    float64
	OverheadFrac float64 // max(0, best checked/plain ratio - 1 over interleaved pairs)
}

// integrityShapes are the transform sizes measured for the ABFT
// overhead gate; fast mode keeps the single CI-smoke shape.
func integrityShapes(fast bool) []int {
	if fast {
		return []int{4096}
	}
	return []int{4096, 16384}
}

// KernelIntegrity measures the cost of the checked four-step forward
// transform against the unchecked kernel. The overhead fraction is the
// quantity TestKernelIntegrityFast gates: the fused-checksum design
// claims the verification rides along nearly free, and a refactor that
// breaks the fusion shows up here as overhead above the gate. Only
// FourStep.ForwardChecked is timed; the production path
// (poly.Ring.WithIntegrity → Table.ForwardChecked) is not gated.
func KernelIntegrity(fast bool) ([]IntegrityRow, error) {
	var rows []IntegrityRow
	for _, n := range integrityShapes(fast) {
		primes, err := modmath.GeneratePrimes(45, uint64(n), 1)
		if err != nil {
			return nil, fmt.Errorf("bench: integrity N=%d: %w", n, err)
		}
		tbl, err := ntt.NewTable(modmath.MustModulus(primes[0]), n)
		if err != nil {
			return nil, err
		}
		n1 := 1
		for n1*n1 < n {
			n1 <<= 1
		}
		fs, err := ntt.NewFourStep(tbl, n1, n/n1)
		if err != nil {
			return nil, err
		}
		rng := rand.New(rand.NewSource(int64(n)))
		a := make([]uint64, n)
		for i := range a {
			a[i] = rng.Uint64() % tbl.M.Q
		}
		dst := make([]uint64, n)
		ck := integrity.NewChecker(1)
		plainOp := func() { fs.Forward(dst, a) }
		checkedOp := func() {
			if _, err := fs.ForwardChecked(dst, a, ck); err != nil {
				panic(err) // no injector: a mismatch here is a real kernel bug
			}
		}
		// Interleaved pairs: a load spike hitting only one side of a
		// single plain-then-checked measurement inflates the apparent
		// overhead by far more than the check costs, so the gate takes
		// the best checked/plain ratio across adjacent pairs — paired
		// samples see the same machine, and noise only ever pushes the
		// ratio up.
		plain, checked := math.Inf(1), math.Inf(1)
		overhead := math.Inf(1)
		for pair := 0; pair < 5; pair++ {
			p := measureNsOp(plainOp)
			c := measureNsOp(checkedOp)
			if r := c/p - 1; r < overhead {
				overhead = r
			}
			plain = math.Min(plain, p)
			checked = math.Min(checked, c)
		}
		if overhead < 0 {
			overhead = 0 // the check cannot be negative work
		}
		rows = append(rows, IntegrityRow{N: n, PlainNs: plain, CheckedNs: checked, OverheadFrac: overhead})
	}
	return rows, nil
}

// measureNsOp times op: one warm-up call, then reps doubled until a
// sample clears minSample, and the minimum of three such samples wins —
// the standard defence against scheduler noise on a loaded machine.
func measureNsOp(op func()) float64 {
	const minSample = 2 * time.Millisecond
	op() // warm pools and caches
	reps := 1
	best := time.Duration(1<<63 - 1)
	for sample := 0; sample < 3; {
		start := time.Now()
		for i := 0; i < reps; i++ {
			op()
		}
		elapsed := time.Since(start)
		if elapsed < minSample && reps < 1<<20 {
			reps <<= 1
			continue
		}
		if per := elapsed / time.Duration(reps); per < best {
			best = per
		}
		sample++
	}
	return float64(best.Nanoseconds())
}
