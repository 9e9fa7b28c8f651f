package boot

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"crophe/internal/ckks"
)

// bootFixture is a keyed bootstrapping context at the repository
// benchmark's parameters: logN=8, 11 levels, alpha=2, a sparse secret of
// Hamming weight 4, K=4 and a degree-63 sine surrogate.
type bootFixture struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	pk     *ckks.PublicKey
	eval   *ckks.Evaluator
}

func newBootFixture(t testing.TB) *bootFixture {
	t.Helper()
	params, err := ckks.TestParameters(8, 11, 2)
	if err != nil {
		t.Fatal(err)
	}
	rng := ckks.NewTestRand(1)
	kg := ckks.NewKeyGenerator(params, rng)
	sk := kg.GenSecretKeySparse(4)
	enc := ckks.NewEncoder(params)
	var rots []int
	seen := map[int]bool{}
	for _, s := range []RotationStrategy{MinKS{}, Hoisting{}, Hybrid{RHyb: 2}} {
		probe := NewBootstrapper(params, enc, ckks.NewEvaluator(params, nil), bootFixtureConfig(s))
		for _, r := range probe.Rotations() {
			if !seen[r] {
				seen[r] = true
				rots = append(rots, r)
			}
		}
	}
	return &bootFixture{
		params: params,
		enc:    enc,
		pk:     kg.GenPublicKey(sk),
		eval:   ckks.NewEvaluator(params, kg.GenEvaluationKeySet(sk, rots)),
	}
}

func bootFixtureConfig(s RotationStrategy) BootstrapConfig {
	return BootstrapConfig{K: 4, SineDeg: 63, Strategy: s}
}

// input encrypts a level-0 message with slot magnitudes ≤ 0.3; the
// message and the encryption randomness both derive from seed.
func (f *bootFixture) input(t testing.TB, seed int64) *ckks.Ciphertext {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	msg := make([]complex128, f.params.Slots())
	for i := range msg {
		msg[i] = complex(0.6*rng.Float64()-0.3, 0)
	}
	encr := ckks.NewEncryptor(f.params, f.pk, ckks.NewTestRand(seed))
	ct, err := ckks.EncryptAtLevel(f.enc, encr, msg, 0)
	if err != nil {
		t.Fatal(err)
	}
	return ct
}

// ciphertextHash digests the B and A residues, the level and the scale.
func ciphertextHash(ct *ckks.Ciphertext) string {
	h := sha256.New()
	var w [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(w[:], v)
		h.Write(w[:])
	}
	for _, limbs := range [][][]uint64{ct.B.Coeffs, ct.A.Coeffs} {
		for _, row := range limbs {
			for _, v := range row {
				put(v)
			}
		}
	}
	put(uint64(ct.Level))
	put(math.Float64bits(ct.Scale))
	return hex.EncodeToString(h.Sum(nil))
}

// TestBootstrapOutputPinned pins the bootstrapped ciphertext bit for bit
// under each rotation strategy. Every operator on the path is exact
// modular arithmetic or deterministic rounding, so any change in how the
// pipeline is evaluated must reproduce these digests.
func TestBootstrapOutputPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("bootstrap pin is slow")
	}
	want := map[string]string{
		"min-ks":      "0bcb439ec49ca1d42f1f49910d84eba807014cc437ea31891da46d41ea88d9ca",
		"hoisting":    "b72045f29f15166da970310f6cac1e9f14466c4570209425442b4595abc3efb1",
		"hybrid(r=2)": "202215bd97d3e0ebb5d587341280fe51c4383cde8905d039da6c5b5e54fa18bb",
	}
	f := newBootFixture(t)
	for _, s := range []RotationStrategy{MinKS{}, Hoisting{}, Hybrid{RHyb: 2}} {
		b := NewBootstrapper(f.params, f.enc, f.eval, bootFixtureConfig(s))
		// Two bootstraps in sequence: the first fills any lazily built
		// per-transform state, the second is the pinned one.
		for op := 0; op < 2; op++ {
			out, err := b.Bootstrap(f.input(t, int64(op)))
			if err != nil {
				t.Fatalf("%s: %v", s.Name(), err)
			}
			if op == 0 {
				continue
			}
			if got := ciphertextHash(out); got != want[s.Name()] {
				t.Errorf("%s: bootstrap output digest %s, want %s", s.Name(), got, want[s.Name()])
			}
		}
	}
}

// BenchmarkBootstrap times one bootstrap at the repository benchmark's
// parameters with the Hybrid{2} strategy, reporting allocations.
func BenchmarkBootstrap(b *testing.B) {
	f := newBootFixture(b)
	bs := NewBootstrapper(f.params, f.enc, f.eval, bootFixtureConfig(Hybrid{RHyb: 2}))
	ct := f.input(b, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bs.Bootstrap(ct); err != nil {
			b.Fatal(err)
		}
	}
}
