// Package boot implements the CKKS bootstrapping kernels the paper's
// workloads are built from: BSGS plaintext matrix–vector multiplication
// (Algorithm 1), the CoeffToSlot/SlotToCoeff homomorphic DFTs, Chebyshev
// polynomial evaluation for EvalMod, and the three baby-step rotation
// strategies of Figure 8 (Min-KS, Hoisting, Hybrid) whose dataflow
// trade-off motivates the hybrid-rotation optimisation.
package boot

import (
	"fmt"
	"sort"
	"sync"

	"crophe/internal/ckks"
)

// LinearTransform is an n×n plaintext matrix stored as its generalised
// diagonals, ready for BSGS evaluation on a ciphertext whose slots hold the
// input vector. n must equal the parameter slot count.
type LinearTransform struct {
	N1, N2 int // BSGS split, N1·N2 ≥ n with N1 baby steps
	// diags[d] is the d-th generalised diagonal: diags[d][j] = M[j][(j+d) mod n].
	// Only non-zero diagonals are stored.
	diags map[int][]complex128
	n     int

	// encoded[scale][d] holds diagonal d, rotated for its giant step
	// (Algorithm 1 line 7), embedded at scale: the level-independent
	// half of its plaintext. Filled on first Evaluate, read-only after.
	encMu   sync.Mutex
	encoded map[float64][][]int64
}

// NewLinearTransform extracts the diagonals of a dense matrix and picks a
// BSGS split n = n1·n2 with n1 ≈ √n (n1 chosen as a divisor power of two).
func NewLinearTransform(matrix [][]complex128) (*LinearTransform, error) {
	n := len(matrix)
	if n == 0 {
		return nil, fmt.Errorf("boot: empty matrix")
	}
	for i := range matrix {
		if len(matrix[i]) != n {
			return nil, fmt.Errorf("boot: matrix is not square (row %d has %d cols)", i, len(matrix[i]))
		}
	}
	if n&(n-1) != 0 {
		return nil, fmt.Errorf("boot: matrix size %d must be a power of two", n)
	}
	lt := &LinearTransform{diags: make(map[int][]complex128), n: n}
	for d := 0; d < n; d++ {
		diag := make([]complex128, n)
		nz := false
		for j := 0; j < n; j++ {
			diag[j] = matrix[j][(j+d)%n]
			if diag[j] != 0 {
				nz = true
			}
		}
		if nz {
			lt.diags[d] = diag
		}
	}
	lt.N1, lt.N2 = bsgsSplit(n)
	return lt, nil
}

// bsgsSplit picks n1 = 2^ceil(log2(√n)) and n2 = n/n1.
func bsgsSplit(n int) (n1, n2 int) {
	n1 = 1
	for n1*n1 < n {
		n1 <<= 1
	}
	return n1, n / n1
}

// Rotations returns every rotation amount the BSGS evaluation needs:
// baby steps 1..N1−1 and giant steps N1·j for j = 1..N2−1 — the key set
// the KeyGenerator must provide.
func (lt *LinearTransform) Rotations() []int {
	var rots []int
	for i := 1; i < lt.N1; i++ {
		rots = append(rots, i)
	}
	for j := 1; j < lt.N2; j++ {
		rots = append(rots, lt.N1*j)
	}
	return rots
}

// Diagonals returns the stored non-zero diagonal indices in ascending
// order — the deterministic iteration order for anything that accumulates
// across diagonals.
func (lt *LinearTransform) Diagonals() []int {
	out := make([]int, 0, len(lt.diags))
	for d := range lt.diags {
		out = append(out, d)
	}
	sort.Ints(out)
	return out
}

// rotateSlice circularly rotates v left by r.
func rotateSlice(v []complex128, r int) []complex128 {
	n := len(v)
	r = ((r % n) + n) % n
	out := make([]complex128, n)
	for i := range v {
		out[i] = v[(i+r)%n]
	}
	return out
}

// Apply multiplies the matrix with a plaintext vector — the reference the
// homomorphic evaluation is tested against.
func (lt *LinearTransform) Apply(v []complex128) []complex128 {
	out := make([]complex128, lt.n)
	// Accumulate diagonals in index order: complex addition rounds
	// non-associatively, so summing in map order would make the reference
	// vector (and every tolerance comparison against it) run-dependent.
	for _, d := range lt.Diagonals() {
		diag := lt.diags[d]
		rot := rotateSlice(v, d)
		for j := range out {
			out[j] += diag[j] * rot[j]
		}
	}
	return out
}

// Evaluate computes M × ct homomorphically with the BSGS method of
// Algorithm 1. The rotation strategy computes the baby-step rotations
// (Min-KS, Hoisting or Hybrid — all functionally equivalent). The
// diagonals are embedded once per scale and reused by later calls, which
// only lift them to the ciphertext's level; one transform is safe to
// evaluate from several goroutines at once.
func (lt *LinearTransform) Evaluate(
	eval *ckks.Evaluator, enc *ckks.Encoder, ct *ckks.Ciphertext,
	strategy RotationStrategy,
) (*ckks.Ciphertext, error) {
	params := enc.Params()
	if lt.n != params.Slots() {
		return nil, fmt.Errorf("boot: %d×%d transform on %d slots", lt.n, lt.n, params.Slots())
	}
	diags, err := lt.encodedDiags(enc, params.Scale)
	if err != nil {
		return nil, err
	}
	// Baby-step rotations ct_i for i = 0..N1-1 (Algorithm 1 lines 1–2).
	babies, err := strategy.BabyRotations(eval, ct, lt.N1)
	if err != nil {
		return nil, err
	}

	// Each diagonal is lifted in turn into this call's scratch plaintext.
	pt := &ckks.Plaintext{Value: params.RingQ().NewPoly(ct.Level + 1), Scale: params.Scale, Level: ct.Level}
	var acc *ckks.Ciphertext // ct' (line 3)
	for j := 0; j < lt.N2; j++ {
		var inner *ckks.Ciphertext // r (line 5)
		for i := 0; i < lt.N1; i++ {
			coeffs := diags[lt.N1*j+i]
			if coeffs == nil {
				continue
			}
			if err := enc.LiftInto(pt, coeffs); err != nil {
				return nil, err
			}
			if inner == nil {
				inner, err = eval.MulPlain(babies[i], pt)
			} else {
				err = eval.MulPlainAdd(inner, babies[i], pt)
			}
			if err != nil {
				return nil, err
			}
		}
		if inner == nil {
			continue
		}
		// Giant-step rotation (line 8).
		if j > 0 {
			if inner, err = eval.Rotate(inner, lt.N1*j); err != nil {
				return nil, err
			}
		}
		if acc == nil {
			acc = inner
		} else if acc, err = eval.Add(acc, inner); err != nil {
			return nil, err
		}
	}
	if acc == nil {
		return nil, fmt.Errorf("boot: zero matrix")
	}
	// HRescale (line 9).
	return eval.Rescale(acc)
}

// encodedDiags returns the embedded diagonals at scale, indexed by
// diagonal (nil where the diagonal is zero), embedding them on first use.
func (lt *LinearTransform) encodedDiags(enc *ckks.Encoder, scale float64) ([][]int64, error) {
	lt.encMu.Lock()
	defer lt.encMu.Unlock()
	if diags, ok := lt.encoded[scale]; ok {
		return diags, nil
	}
	diags := make([][]int64, lt.n)
	for _, d := range lt.Diagonals() {
		// Rot_{-n1·j}(diag) aligns the diagonal with the un-rotated
		// giant step j = d / n1 (line 7).
		coeffs, err := enc.Embed(rotateSlice(lt.diags[d], -lt.N1*(d/lt.N1)), scale)
		if err != nil {
			return nil, err
		}
		diags[d] = coeffs
	}
	if lt.encoded == nil {
		lt.encoded = make(map[float64][][]int64)
	}
	lt.encoded[scale] = diags
	return diags, nil
}

// Identity returns the n×n identity transform, handy in tests.
func Identity(n int) *LinearTransform {
	m := make([][]complex128, n)
	for i := range m {
		m[i] = make([]complex128, n)
		m[i][i] = 1
	}
	return mustLinearTransform(m, "identity")
}

// mustLinearTransform wraps NewLinearTransform for matrices that are
// square by construction. A failure here is a builder bug, not a
// data-dependent condition, so it panics with the matrix role and shape
// for context.
func mustLinearTransform(m [][]complex128, role string) *LinearTransform {
	lt, err := NewLinearTransform(m)
	if err != nil {
		panic(fmt.Sprintf("boot: %s transform (%d rows): %v", role, len(m), err))
	}
	return lt
}

// NumDiagonals reports how many non-zero diagonals are stored.
func (lt *LinearTransform) NumDiagonals() int { return len(lt.diags) }
