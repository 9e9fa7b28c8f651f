package ckks

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// testContext bundles everything a homomorphic test needs.
type testContext struct {
	params *Parameters
	enc    *Encoder
	kg     *KeyGenerator
	sk     *SecretKey
	pk     *PublicKey
	keys   *EvaluationKeySet
	encr   *Encryptor
	decr   *Decryptor
	eval   *Evaluator
	rng    *rand.Rand
}

func newTestContext(t testing.TB, logN, levels, alpha int, rotations []int) *testContext {
	t.Helper()
	params, err := TestParameters(logN, levels, alpha)
	if err != nil {
		t.Fatal(err)
	}
	rng := NewTestRand(42)
	kg := NewKeyGenerator(params, rng)
	sk := kg.GenSecretKey()
	pk := kg.GenPublicKey(sk)
	keys := kg.GenEvaluationKeySet(sk, rotations)
	return &testContext{
		params: params,
		enc:    NewEncoder(params),
		kg:     kg, sk: sk, pk: pk, keys: keys,
		encr: NewEncryptor(params, pk, rng),
		decr: NewDecryptor(params, sk),
		eval: NewEvaluator(params, keys),
		rng:  rng,
	}
}

func randomValues(rng *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func maxErr(got, want []complex128) float64 {
	var worst float64
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst {
			worst = e
		}
	}
	return worst
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	vals := randomValues(tc.rng, tc.params.Slots())
	pt, err := tc.enc.Encode(vals, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt)
	if e := maxErr(got, vals); e > 1e-6 {
		t.Fatalf("encode/decode error %g", e)
	}
}

func TestEncodeShortVectorPads(t *testing.T) {
	tc := newTestContext(t, 6, 1, 1, nil)
	vals := []complex128{1 + 2i, 3}
	pt, err := tc.enc.Encode(vals, 0)
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(pt)
	if cmplx.Abs(got[0]-(1+2i)) > 1e-6 || cmplx.Abs(got[1]-3) > 1e-6 {
		t.Fatal("short vector values wrong")
	}
	for i := 2; i < len(got); i++ {
		if cmplx.Abs(got[i]) > 1e-6 {
			t.Fatalf("slot %d not zero-padded", i)
		}
	}
}

func TestEncodeErrors(t *testing.T) {
	tc := newTestContext(t, 6, 1, 1, nil)
	if _, err := tc.enc.Encode(make([]complex128, tc.params.Slots()+1), 0); err == nil {
		t.Error("oversized vector should fail")
	}
	if _, err := tc.enc.Encode(nil, 5); err == nil {
		t.Error("bad level should fail")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	vals := randomValues(tc.rng, tc.params.Slots())
	ct, err := EncryptAtLevel(tc.enc, tc.encr, vals, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	got := tc.enc.Decode(tc.decr.Decrypt(ct))
	if e := maxErr(got, vals); e > 1e-4 {
		t.Fatalf("encrypt/decrypt error %g", e)
	}
}

func TestHAdd(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	v0 := randomValues(tc.rng, tc.params.Slots())
	v1 := randomValues(tc.rng, tc.params.Slots())
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, v0, tc.params.MaxLevel())
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, v1, tc.params.MaxLevel())
	sum, err := tc.eval.Add(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v0))
	for i := range want {
		want[i] = v0[i] + v1[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(sum))
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("HAdd error %g", e)
	}
}

func TestHSub(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	v0 := randomValues(tc.rng, tc.params.Slots())
	v1 := randomValues(tc.rng, tc.params.Slots())
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, v0, tc.params.MaxLevel())
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, v1, tc.params.MaxLevel())
	diff, err := tc.eval.Sub(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v0))
	for i := range want {
		want[i] = v0[i] - v1[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(diff))
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("HSub error %g", e)
	}
}

func TestAddLevelMismatchAligns(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	ctHigh, _ := EncryptAtLevel(tc.enc, tc.encr, v, 2)
	ctLow, _ := EncryptAtLevel(tc.enc, tc.encr, v, 1)
	sum, err := tc.eval.Add(ctHigh, ctLow)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Level != 1 {
		t.Fatalf("sum at level %d, want 1", sum.Level)
	}
}

func TestAddScaleMismatchFails(t *testing.T) {
	tc := newTestContext(t, 6, 1, 1, nil)
	v := randomValues(tc.rng, 4)
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, v, 0)
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, v, 0)
	ct1.Scale *= 2
	if _, err := tc.eval.Add(ct0, ct1); err == nil {
		t.Error("scale mismatch should fail")
	}
}

func TestPMultAndRescale(t *testing.T) {
	tc := newTestContext(t, 7, 3, 1, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	w := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	pt, err := tc.enc.Encode(w, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	prod, err := tc.eval.MulPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = tc.eval.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * w[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(prod))
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("PMult error %g", e)
	}
	if prod.Level != tc.params.MaxLevel()-1 {
		t.Fatal("rescale did not drop a level")
	}
}

// TestLiftIntoReusesPlaintext checks that lifting into a plaintext that
// already holds an NTT-form value gives the same residues as a fresh
// Encode at that level.
func TestLiftIntoReusesPlaintext(t *testing.T) {
	tc := newTestContext(t, 6, 3, 1, nil)
	level := tc.params.MaxLevel() - 1
	pt, err := tc.enc.Encode(randomValues(tc.rng, tc.params.Slots()), level)
	if err != nil {
		t.Fatal(err)
	}
	w := randomValues(tc.rng, tc.params.Slots())
	coeffs, err := tc.enc.Embed(w, tc.params.Scale)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.enc.LiftInto(pt, coeffs); err != nil {
		t.Fatal(err)
	}
	want, err := tc.enc.Encode(w, level)
	if err != nil {
		t.Fatal(err)
	}
	if !pt.Value.Equal(want.Value) {
		t.Fatal("LiftInto into a used plaintext differs from a fresh Encode")
	}
	if err := tc.enc.LiftInto(pt, coeffs[1:]); err == nil {
		t.Error("short coefficient vector should fail")
	}
	if _, err := tc.enc.Lift(coeffs, tc.params.MaxLevel()+1, tc.params.Scale); err == nil {
		t.Error("bad level should fail")
	}
}

// TestMulPlainAdd checks the fused accumulate against MulPlain followed
// by Add, residue for residue, and its scale and level checks.
func TestMulPlainAdd(t *testing.T) {
	tc := newTestContext(t, 6, 3, 1, nil)
	top := tc.params.MaxLevel()
	slots := tc.params.Slots()
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, randomValues(tc.rng, slots), top)
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, randomValues(tc.rng, slots), top)
	pt0, _ := tc.enc.Encode(randomValues(tc.rng, slots), top)
	pt1, _ := tc.enc.Encode(randomValues(tc.rng, slots), top)

	t0, err := tc.eval.MulPlain(ct0, pt0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := tc.eval.MulPlain(ct1, pt1)
	if err != nil {
		t.Fatal(err)
	}
	want, err := tc.eval.Add(t0, t1)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.eval.MulPlainAdd(t0, ct1, pt1); err != nil {
		t.Fatal(err)
	}
	if !t0.B.Equal(want.B) || !t0.A.Equal(want.A) || t0.Scale != want.Scale || t0.Level != want.Level {
		t.Fatal("MulPlainAdd differs from MulPlain+Add")
	}

	// Scale mismatch: a fresh ciphertext at Δ against an acc at Δ².
	if err := tc.eval.MulPlainAdd(ct0, ct1, pt1); err == nil {
		t.Error("scale mismatch should fail")
	}
	// An operand below acc's level cannot cover acc's limbs.
	low, _ := tc.enc.Encode(randomValues(tc.rng, slots), top-1)
	if err := tc.eval.MulPlainAdd(t0, ct1, low); err == nil {
		t.Error("plaintext below acc level should fail")
	}
	lowCt, _ := EncryptAtLevel(tc.enc, tc.encr, randomValues(tc.rng, slots), top-1)
	if err := tc.eval.MulPlainAdd(t0, lowCt, pt1); err == nil {
		t.Error("ciphertext below acc level should fail")
	}
}

func TestHMult(t *testing.T) {
	tc := newTestContext(t, 7, 3, 2, nil)
	v0 := randomValues(tc.rng, tc.params.Slots())
	v1 := randomValues(tc.rng, tc.params.Slots())
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, v0, tc.params.MaxLevel())
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, v1, tc.params.MaxLevel())
	prod, err := tc.eval.MulRelin(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	prod, err = tc.eval.Rescale(prod)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v0))
	for i := range want {
		want[i] = v0[i] * v1[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(prod))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("HMult error %g", e)
	}
}

func TestHMultChain(t *testing.T) {
	// (v²)·v across two levels with rescaling.
	tc := newTestContext(t, 7, 3, 2, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	sq, err := tc.eval.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	sq, _ = tc.eval.Rescale(sq)
	cube, err := tc.eval.MulRelin(sq, ct)
	if err != nil {
		t.Fatal(err)
	}
	cube, _ = tc.eval.Rescale(cube)
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * v[i] * v[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(cube))
	if e := maxErr(got, want); e > 5e-2 {
		t.Fatalf("HMult chain error %g", e)
	}
}

func TestHRot(t *testing.T) {
	tc := newTestContext(t, 7, 2, 2, []int{1, 3, -1})
	slots := tc.params.Slots()
	v := randomValues(tc.rng, slots)
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	for _, r := range []int{1, 3, -1} {
		rot, err := tc.eval.Rotate(ct, r)
		if err != nil {
			t.Fatal(err)
		}
		want := make([]complex128, slots)
		for i := range want {
			want[i] = v[((i+r)%slots+slots)%slots]
		}
		got := tc.enc.Decode(tc.decr.Decrypt(rot))
		if e := maxErr(got, want); e > 1e-3 {
			t.Fatalf("HRot(%d) error %g", r, e)
		}
	}
}

func TestRotateWithoutKeyFails(t *testing.T) {
	tc := newTestContext(t, 6, 1, 1, []int{1})
	v := randomValues(tc.rng, 4)
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, 0)
	if _, err := tc.eval.Rotate(ct, 7); err == nil {
		t.Error("missing rotation key should fail")
	}
}

func TestConjugate(t *testing.T) {
	tc := newTestContext(t, 7, 2, 2, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	conj, err := tc.eval.Conjugate(ct)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = cmplx.Conj(v[i])
	}
	got := tc.enc.Decode(tc.decr.Decrypt(conj))
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("Conjugate error %g", e)
	}
}

func TestAddConst(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	out := tc.eval.AddConst(ct, 2.5)
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] + 2.5
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("AddConst error %g", e)
	}
}

func TestMulConst(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	out := tc.eval.MulConst(ct, -1.5)
	out, err := tc.eval.Rescale(out)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * -1.5
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	if e := maxErr(got, want); e > 1e-3 {
		t.Fatalf("MulConst error %g", e)
	}
}

func TestRescaleAtLevelZeroFails(t *testing.T) {
	tc := newTestContext(t, 6, 1, 1, nil)
	v := randomValues(tc.rng, 4)
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, 0)
	if _, err := tc.eval.Rescale(ct); err == nil {
		t.Error("rescale at level 0 should fail")
	}
}

func TestAddPlain(t *testing.T) {
	tc := newTestContext(t, 7, 2, 1, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	w := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	pt, _ := tc.enc.Encode(w, tc.params.MaxLevel())
	out, err := tc.eval.AddPlain(ct, pt)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] + w[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(out))
	if e := maxErr(got, want); e > 1e-4 {
		t.Fatalf("AddPlain error %g", e)
	}
}

func TestParameterValidation(t *testing.T) {
	if _, err := NewParameters(2, []uint64{12289}, []uint64{40961}, 1, 1<<20, 3.2); err == nil {
		t.Error("logN too small should fail")
	}
	if _, err := NewParameters(4, nil, nil, 1, 1<<20, 3.2); err == nil {
		t.Error("empty chain should fail")
	}
	p, err := TestParameters(5, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if p.DNum() != 2 {
		t.Fatalf("DNum = %d, want 2 for L=2, alpha=2", p.DNum())
	}
	if p.Slots() != 16 {
		t.Fatalf("Slots = %d", p.Slots())
	}
}

func TestMultiDigitKeySwitchMatchesSingle(t *testing.T) {
	// alpha=1 (many digits) and alpha=L+1 (one digit) must both decrypt
	// correctly; exercise the dnum>1 path explicitly.
	for _, alpha := range []int{1, 2, 3} {
		tc := newTestContext(t, 6, 2, alpha, nil)
		v := randomValues(tc.rng, tc.params.Slots())
		ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
		prod, err := tc.eval.MulRelin(ct, ct)
		if err != nil {
			t.Fatalf("alpha=%d: %v", alpha, err)
		}
		prod, _ = tc.eval.Rescale(prod)
		want := make([]complex128, len(v))
		for i := range want {
			want[i] = v[i] * v[i]
		}
		got := tc.enc.Decode(tc.decr.Decrypt(prod))
		if e := maxErr(got, want); e > 1e-2 {
			t.Fatalf("alpha=%d: square error %g", alpha, e)
		}
	}
}

func TestHomomorphismLinearityProperty(t *testing.T) {
	// Dec(α·ct0 + ct1) ≈ α·v0 + v1 for scalar α realised as MulConst.
	tc := newTestContext(t, 6, 2, 1, nil)
	v0 := randomValues(tc.rng, tc.params.Slots())
	v1 := randomValues(tc.rng, tc.params.Slots())
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, v0, tc.params.MaxLevel())
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, v1, tc.params.MaxLevel())
	scaled := tc.eval.MulConst(ct0, 0.5)
	scaled, _ = tc.eval.Rescale(scaled)
	// ct1 must be brought to the same scale/level: multiply by 1.0.
	one := tc.eval.MulConst(ct1, 1.0)
	one, _ = tc.eval.Rescale(one)
	sum, err := tc.eval.Add(scaled, one)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v0))
	for i := range want {
		want[i] = 0.5*v0[i] + v1[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(sum))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("linearity error %g", e)
	}
}

func TestScaleTracking(t *testing.T) {
	tc := newTestContext(t, 6, 2, 1, nil)
	v := randomValues(tc.rng, 4)
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	if ct.Scale != tc.params.Scale {
		t.Fatal("fresh ciphertext scale")
	}
	sq, _ := tc.eval.MulRelin(ct, ct)
	if math.Abs(sq.Scale-ct.Scale*ct.Scale) > 1 {
		t.Fatal("product scale")
	}
	rs, _ := tc.eval.Rescale(sq)
	wantScale := sq.Scale / float64(tc.params.Q[tc.params.MaxLevel()])
	if math.Abs(rs.Scale-wantScale) > 1 {
		t.Fatal("rescaled scale")
	}
}

func BenchmarkHMult(b *testing.B) {
	tc := newTestContext(b, 10, 3, 2, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.MulRelin(ct, ct); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHRot(b *testing.B) {
	tc := newTestContext(b, 10, 3, 2, []int{1})
	v := randomValues(tc.rng, tc.params.Slots())
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, tc.params.MaxLevel())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.eval.Rotate(ct, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMulNoRelinThenRelinearize(t *testing.T) {
	tc := newTestContext(t, 7, 3, 2, nil)
	v0 := randomValues(tc.rng, tc.params.Slots())
	v1 := randomValues(tc.rng, tc.params.Slots())
	ct0, _ := EncryptAtLevel(tc.enc, tc.encr, v0, tc.params.MaxLevel())
	ct1, _ := EncryptAtLevel(tc.enc, tc.encr, v1, tc.params.MaxLevel())

	deg2, err := tc.eval.MulNoRelin(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	if deg2.Degree() != 2 {
		t.Fatal("degree after MulNoRelin")
	}
	// Degree-2 ciphertexts decrypt directly (Decrypt handles D2·s²).
	want := make([]complex128, len(v0))
	for i := range want {
		want[i] = v0[i] * v1[i]
	}
	got := tc.enc.Decode(tc.decr.Decrypt(deg2))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("degree-2 decrypt error %g", e)
	}

	relin, err := tc.eval.Relinearize(deg2)
	if err != nil {
		t.Fatal(err)
	}
	if relin.Degree() != 1 {
		t.Fatal("degree after Relinearize")
	}
	got = tc.enc.Decode(tc.decr.Decrypt(relin))
	if e := maxErr(got, want); e > 1e-2 {
		t.Fatalf("relinearised decrypt error %g", e)
	}

	// Must agree with the fused MulRelin path.
	fused, err := tc.eval.MulRelin(ct0, ct1)
	if err != nil {
		t.Fatal(err)
	}
	gotF := tc.enc.Decode(tc.decr.Decrypt(fused))
	gotL := tc.enc.Decode(tc.decr.Decrypt(relin))
	if e := maxErr(gotL, gotF); e > 1e-3 {
		t.Fatalf("lazy vs fused relinearisation differ by %g", e)
	}
}

func TestRelinearizeErrors(t *testing.T) {
	tc := newTestContext(t, 6, 1, 1, nil)
	v := randomValues(tc.rng, 4)
	ct, _ := EncryptAtLevel(tc.enc, tc.encr, v, 0)
	if _, err := tc.eval.Relinearize(ct); err == nil {
		t.Error("relinearising a degree-1 ciphertext should fail")
	}
	deg2, _ := tc.eval.MulNoRelin(ct, ct)
	if _, err := tc.eval.MulNoRelin(deg2, ct); err == nil {
		t.Error("tensoring a degree-2 ciphertext should fail")
	}
	bare := NewEvaluator(tc.params, nil)
	if _, err := bare.Relinearize(deg2); err == nil {
		t.Error("relinearising without keys should fail")
	}
}

func TestNoiseBitsGrowsThroughOperations(t *testing.T) {
	tc := newTestContext(t, 7, 3, 2, nil)
	v := randomValues(tc.rng, tc.params.Slots())
	pt, err := tc.enc.Encode(v, tc.params.MaxLevel())
	if err != nil {
		t.Fatal(err)
	}
	ct := tc.encr.Encrypt(pt)

	fresh := tc.decr.NoiseBits(ct, pt)
	if fresh <= 0 {
		t.Fatalf("fresh noise %f bits implausible", fresh)
	}
	// Fresh noise must sit far below the budget and below the scale.
	if budget := tc.params.LogQ(ct.Level); fresh > budget/2 {
		t.Fatalf("fresh noise %f bits vs budget %f", fresh, budget)
	}
	if fresh > math.Log2(tc.params.Scale) {
		t.Fatalf("fresh noise %f bits exceeds the scale (message drowned)", fresh)
	}

	// After a multiplication and rescale, noise grows but the message
	// (back at scale ≈ Δ) must still dominate it.
	sq, err := tc.eval.MulRelin(ct, ct)
	if err != nil {
		t.Fatal(err)
	}
	if sq, err = tc.eval.Rescale(sq); err != nil {
		t.Fatal(err)
	}
	want := make([]complex128, len(v))
	for i := range want {
		want[i] = v[i] * v[i]
	}
	ptSq, err := tc.enc.EncodeAtScale(want, sq.Level, sq.Scale)
	if err != nil {
		t.Fatal(err)
	}
	after := tc.decr.NoiseBits(sq, ptSq)
	if after <= fresh {
		t.Fatalf("noise did not grow through HMult+Rescale: %f -> %f bits", fresh, after)
	}
	if after > math.Log2(sq.Scale) {
		t.Fatalf("post-mult noise %f bits drowns the message at scale 2^%.0f",
			after, math.Log2(sq.Scale))
	}
	t.Logf("noise: fresh %.0f bits, after HMult+Rescale %.0f bits (budget %.0f)",
		fresh, after, tc.params.LogQ(ct.Level))
}
