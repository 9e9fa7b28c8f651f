package ckks

import (
	"fmt"
	"math"
	"math/big"
	"math/cmplx"

	"crophe/internal/modmath"
	"crophe/internal/poly"
)

// Plaintext is an encoded message: an RNS polynomial carrying its scale.
type Plaintext struct {
	Value *poly.Poly
	Scale float64
	Level int
}

// Encoder maps complex slot vectors to ring elements through the canonical
// embedding: slot j corresponds to evaluation at ζ^{5^j} with ζ = e^{iπ/N},
// and the conjugate points carry the conjugate values so coefficients stay
// real. The implementation uses the direct O(N²) embedding — this substrate
// is a correctness reference; throughput lives in the simulator.
type Encoder struct {
	params *Parameters
	// zetaPow[t] = ζ^t for t in [0, 2N).
	zetaPow []complex128
	// rotGroup[j] = 5^j mod 2N for j in [0, N/2).
	rotGroup []uint64
}

// NewEncoder precomputes the embedding tables.
func NewEncoder(params *Parameters) *Encoder {
	n := params.N()
	e := &Encoder{params: params}
	e.zetaPow = make([]complex128, 2*n)
	for t := 0; t < 2*n; t++ {
		angle := math.Pi * float64(t) / float64(n)
		e.zetaPow[t] = cmplx.Exp(complex(0, angle))
	}
	e.rotGroup = make([]uint64, n/2)
	g := uint64(1)
	for j := 0; j < n/2; j++ {
		e.rotGroup[j] = g
		g = g * 5 % uint64(2*n)
	}
	return e
}

// Params returns the parameter set the encoder embeds for.
func (e *Encoder) Params() *Parameters { return e.params }

// Encode embeds values (len ≤ N/2; shorter vectors are zero-padded) into a
// fresh plaintext at the given level with the parameter scale.
func (e *Encoder) Encode(values []complex128, level int) (*Plaintext, error) {
	return e.EncodeAtScale(values, level, e.params.Scale)
}

// EncodeAtScale is Encode with an explicit scale: Embed followed by Lift.
func (e *Encoder) EncodeAtScale(values []complex128, level int, scale float64) (*Plaintext, error) {
	coeffs, err := e.Embed(values, scale)
	if err != nil {
		return nil, err
	}
	return e.Lift(coeffs, level, scale)
}

// Embed is the level-independent half of encoding: it maps values (len ≤
// N/2; shorter vectors are zero-padded) through the inverse canonical
// embedding, scaled by scale and rounded to integer coefficients. The
// result depends only on N and the scale, so callers that reuse a
// plaintext at several levels can embed once and Lift per level.
func (e *Encoder) Embed(values []complex128, scale float64) ([]int64, error) {
	n := e.params.N()
	slots := n / 2
	if len(values) > slots {
		return nil, fmt.Errorf("ckks: %d values exceed %d slots", len(values), slots)
	}
	z := make([]complex128, slots)
	copy(z, values)

	// a_k = (2/N)·Σ_j Re(z_j · ζ^{-k·5^j}), scaled by Δ and rounded.
	coeffs := make([]int64, n)
	twoN := uint64(2 * n)
	for k := 0; k < n; k++ {
		var acc float64
		for j := 0; j < slots; j++ {
			t := (uint64(k) * e.rotGroup[j]) % twoN
			// ζ^{-k·5^j} = conj(ζ^{k·5^j})
			w := cmplx.Conj(e.zetaPow[t])
			acc += real(z[j])*real(w) - imag(z[j])*imag(w)
		}
		v := acc * 2 / float64(n) * scale
		if math.Abs(v) > math.Ldexp(1, 62) {
			return nil, fmt.Errorf("ckks: encoded coefficient overflows (|v| = %g)", math.Abs(v))
		}
		coeffs[k] = int64(math.Round(v))
	}
	return coeffs, nil
}

// Lift reduces embedded coefficients into a fresh NTT-form plaintext at
// the given level.
func (e *Encoder) Lift(coeffs []int64, level int, scale float64) (*Plaintext, error) {
	if level < 0 || level > e.params.MaxLevel() {
		return nil, fmt.Errorf("ckks: level %d out of range", level)
	}
	pt := &Plaintext{Value: e.params.RingQ().NewPoly(level + 1), Scale: scale, Level: level}
	if err := e.LiftInto(pt, coeffs); err != nil {
		return nil, err
	}
	return pt, nil
}

// LiftInto is Lift into an existing plaintext: it overwrites pt's
// pt.Level+1 limbs with the reduced, NTT-form coefficients. pt.Scale is
// left to the caller, who knows the scale the coefficients were embedded
// at.
func (e *Encoder) LiftInto(pt *Plaintext, coeffs []int64) error {
	if len(coeffs) != e.params.N() {
		return fmt.Errorf("ckks: got %d coefficients for ring degree %d", len(coeffs), e.params.N())
	}
	if pt.Value.Limbs() != pt.Level+1 {
		return fmt.Errorf("ckks: plaintext at level %d has %d limbs", pt.Level, pt.Value.Limbs())
	}
	rq := e.params.RingQ()
	rq.SetInt64Coeffs(pt.Value, coeffs)
	rq.NTT(pt.Value)
	return nil
}

// Decode recovers the slot values of a plaintext.
func (e *Encoder) Decode(pt *Plaintext) []complex128 {
	n := e.params.N()
	slots := n / 2
	ring := e.params.RingQ()

	p := pt.Value.Copy()
	ring.INTT(p)

	// Reconstruct centered coefficients. For multi-limb plaintexts use
	// CRT; the common case after computation keeps values within the
	// first limb only when |coeff| << q_0, but in general we must CRT.
	basis := e.params.QAtLevel(pt.Level)
	coeffs := make([]float64, n)
	if p.Limbs() == 1 {
		q := ring.Mod(0).Q
		for j := 0; j < n; j++ {
			coeffs[j] = float64(modmath.CenteredLift(p.Coeffs[0][j], q))
		}
	} else {
		residues := make([]uint64, p.Limbs())
		for j := 0; j < n; j++ {
			for i := 0; i < p.Limbs(); i++ {
				residues[i] = p.Coeffs[i][j]
			}
			c := basis.ReconstructCentered(residues)
			f, _ := new(big.Float).SetInt(c).Float64()
			coeffs[j] = f
		}
	}

	// z_j = a(ζ^{5^j}) / Δ
	out := make([]complex128, slots)
	twoN := uint64(2 * n)
	for j := 0; j < slots; j++ {
		var zr, zi float64
		for k := 0; k < n; k++ {
			t := (uint64(k) * e.rotGroup[j]) % twoN
			w := e.zetaPow[t]
			zr += coeffs[k] * real(w)
			zi += coeffs[k] * imag(w)
		}
		out[j] = complex(zr/pt.Scale, zi/pt.Scale)
	}
	return out
}

// EncodeConstant builds a plaintext with every slot equal to c — the
// operand shape of CAdd/CMult.
func (e *Encoder) EncodeConstant(c complex128, level int) (*Plaintext, error) {
	slots := e.params.Slots()
	vals := make([]complex128, slots)
	for i := range vals {
		vals[i] = c
	}
	return e.Encode(vals, level)
}
