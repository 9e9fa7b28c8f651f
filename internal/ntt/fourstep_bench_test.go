package ntt

import (
	"math/rand"
	"testing"

	"crophe/internal/integrity"
	"crophe/internal/modmath"
)

func benchSetup(b *testing.B, n int) (*Table, *FourStep, []uint64) {
	b.Helper()
	ps, err := modmath.GeneratePrimes(45, uint64(n), 1)
	if err != nil {
		b.Fatal(err)
	}
	m := modmath.MustModulus(ps[0])
	t, err := NewTable(m, n)
	if err != nil {
		b.Fatal(err)
	}
	n1 := 1
	for n1*n1 < n {
		n1 <<= 1
	}
	fs, err := NewFourStep(t, n1, n/n1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	a := make([]uint64, n)
	for i := range a {
		a[i] = rng.Uint64() % m.Q
	}
	return t, fs, a
}

func BenchmarkFourStepForward(b *testing.B) {
	_, fs, a := benchSetup(b, 4096)
	dst := make([]uint64, len(a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Forward(dst, a)
	}
}

func BenchmarkFourStepInverse(b *testing.B) {
	_, fs, a := benchSetup(b, 4096)
	dst := make([]uint64, len(a))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fs.Inverse(dst, a)
	}
}

// BenchmarkFourStepForwardIntegrity is the ABFT-checked counterpart of
// BenchmarkFourStepForward; the delta between the two is the integrity
// overhead that TestKernelIntegrityFast (internal/bench) gates at ≤3%.
func BenchmarkFourStepForwardIntegrity(b *testing.B) {
	_, fs, a := benchSetup(b, 4096)
	dst := make([]uint64, len(a))
	ck := integrity.NewChecker(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.ForwardChecked(dst, a, ck); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFourStepInverseIntegrity(b *testing.B) {
	_, fs, a := benchSetup(b, 4096)
	dst := make([]uint64, len(a))
	ck := integrity.NewChecker(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fs.InverseChecked(dst, a, ck); err != nil {
			b.Fatal(err)
		}
	}
}
