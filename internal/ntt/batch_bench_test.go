package ntt

import (
	"fmt"
	"testing"
)

// BenchmarkBatchNTT is the headline kernel-layer benchmark family: batch
// transforms over 1/8/32 limbs at ring degrees 2^12..2^16, the shapes
// the poly layer dispatches. Nothing gates these numbers; `make
// bench-kernels` runs each shape once under the race detector.
func BenchmarkBatchNTT(b *testing.B) {
	for _, n := range []int{1 << 12, 1 << 14, 1 << 16} {
		for _, limbs := range []int{1, 8, 32} {
			tables, rows := batchFixture(b, n, limbs)
			b.Run(fmt.Sprintf("forward/N=%d/limbs=%d", n, limbs), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * n * limbs))
				for i := 0; i < b.N; i++ {
					BatchForward(tables, rows)
				}
			})
			b.Run(fmt.Sprintf("inverse/N=%d/limbs=%d", n, limbs), func(b *testing.B) {
				b.ReportAllocs()
				b.SetBytes(int64(8 * n * limbs))
				for i := 0; i < b.N; i++ {
					BatchInverse(tables, rows)
				}
			})
		}
	}
}
