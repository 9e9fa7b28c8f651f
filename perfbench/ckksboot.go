package main

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"time"

	"crophe/internal/boot"
	"crophe/internal/ckks"
)

// ckksBoot runs functional RNS-CKKS bootstrapping end to end. logN=8
// keeps the O(N·slots) reference encoder from hiding the NTT and
// key-switch kernels, as it does at logN=10.
var ckksBoot = Workload{
	Name:  "ckks-boot",
	Why:   "the paper's central workload on the numeric stack (encode, NTT, key switch); the only workload that touches ckks/boot/ntt/rns",
	Setup: setupCKKSBoot,
}

// ckksContext is a CKKS instance at the benchmark's parameters.
type ckksContext struct {
	params *ckks.Parameters
	enc    *ckks.Encoder
	kg     *ckks.KeyGenerator
	sk     *ckks.SecretKey
	pk     *ckks.PublicKey
}

// newCKKSContext builds the parameters and key material: logN=8, 11
// levels, alpha=2, sparse secret (Hamming weight 4) so the ModRaise
// overflow stays within K.
func newCKKSContext(seed int64) (*ckksContext, error) {
	params, err := ckks.TestParameters(8, 11, 2)
	if err != nil {
		return nil, fmt.Errorf("ckks parameters: %w", err)
	}
	kg := ckks.NewKeyGenerator(params, ckks.NewTestRand(seed))
	sk := kg.GenSecretKeySparse(4)
	return &ckksContext{params: params, enc: ckks.NewEncoder(params), kg: kg, sk: sk, pk: kg.GenPublicKey(sk)}, nil
}

type ckksState struct {
	seed   int64
	c      *ckksContext
	b      *boot.Bootstrapper
	dec    *ckks.Decryptor
	floor  float64 // golden bound on the decrypt error
	maxErr float64 // worst decrypt error of the last loop
}

var bootConfig = boot.BootstrapConfig{K: 4, SineDeg: 63, Strategy: boot.Hybrid{RHyb: 2}}

func setupCKKSBoot(seed int64) (State, error) {
	floor, err := loadCKKSGolden()
	if err != nil {
		return nil, err
	}
	return newCKKSState(seed, floor)
}

func newCKKSState(seed int64, floor float64) (*ckksState, error) {
	c, err := newCKKSContext(seed)
	if err != nil {
		return nil, err
	}
	// A keyless bootstrapper lists the rotations the pipeline needs.
	probe := boot.NewBootstrapper(c.params, c.enc, ckks.NewEvaluator(c.params, nil), bootConfig)
	keys := c.kg.GenEvaluationKeySet(c.sk, probe.Rotations())
	b := boot.NewBootstrapper(c.params, c.enc, ckks.NewEvaluator(c.params, keys), bootConfig)
	return &ckksState{seed: seed, c: c, b: b, dec: ckks.NewDecryptor(c.params, c.sk), floor: floor}, nil
}

// Loop bootstraps seeded level-0 ciphertexts until the budget is spent.
// The message and encryption randomness restart from the seed on every
// loop, so each loop sees the same op sequence.
func (s *ckksState) Loop(tr *Tracer, budget time.Duration) (*Phase, error) {
	ph := &Phase{Lanes: 1}
	s.maxErr = 0
	msgRand := rand.New(rand.NewSource(s.seed))
	encryptor := ckks.NewEncryptor(s.c.params, s.c.pk, ckks.NewTestRand(s.seed+1))
	var lats []float64
	start := time.Now()
	for ph.Ops == 0 || time.Since(start) < budget {
		msg := make([]complex128, s.c.params.Slots())
		for i := range msg {
			msg[i] = complex(0.6*msgRand.Float64()-0.3, 0)
		}
		root := tr.begin("harness", "bootstrap-op", -1, 0)
		t0 := time.Now()
		e := tr.begin("ckks", "EncryptAtLevel", root, 0)
		ct, err := ckks.EncryptAtLevel(s.c.enc, encryptor, msg, 0)
		tr.end(e)
		var got []complex128
		if err == nil {
			b := tr.begin("boot", "Bootstrap", root, 0)
			ct, err = s.b.Bootstrap(ct)
			tr.end(b)
		}
		if err == nil {
			d := tr.begin("ckks", "DecryptDecode", root, 0)
			got = s.c.enc.Decode(s.dec.Decrypt(ct))
			tr.end(d)
		}
		lats = append(lats, time.Since(t0).Seconds())
		tr.end(root)
		ph.Ops++
		if err != nil {
			ph.fail("bootstrap op %d: %v", ph.Ops, err)
			continue
		}
		worst := maxAbsErr(got, msg)
		if worst > s.maxErr {
			s.maxErr = worst
		}
		if !(worst <= s.floor) {
			ph.fail("bootstrap op %d: decrypt error %.3g above golden floor %.3g", ph.Ops, worst, s.floor)
		}
	}
	ph.Wall = time.Since(start)
	// Every op does the same work, so the median op time is the robust
	// per-op cost and its inverse the rate of the single caller.
	ph.P50 = median(lats)
	ph.Rate = 1 / ph.P50
	ph.Tail, ph.TailPct = tailLatency(lats)
	ph.Samples = len(lats)
	return ph, nil
}

func maxAbsErr(got, want []complex128) float64 {
	var worst float64
	for i := range want {
		if e := cmplx.Abs(got[i] - want[i]); e > worst || math.IsNaN(e) {
			worst = e
		}
	}
	return worst
}

// Accuracy reports precision_bits: −log2 of the worst decrypt error.
func (s *ckksState) Accuracy(extra map[string]float64) {
	if s.maxErr > 0 {
		extra["precision_bits"] = -math.Log2(s.maxErr)
	}
}

func (s *ckksState) Close() error { return nil }
