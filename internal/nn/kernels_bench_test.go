package nn

import (
	"math/rand"
	"testing"
)

// benchmarkMatMul times one forward + backward of a training-shaped matmul
// (batch·time rows against a d_model×d_model weight) under the active
// kernel mode, including the graph and gradient-buffer allocations the
// arena is meant to absorb.
func benchmarkMatMul(b *testing.B, reference bool) {
	UseReferenceKernels(reference)
	defer UseReferenceKernels(false)
	rng := rand.New(rand.NewSource(1))
	const rows, d = 256, 64
	x := Randn(rng, 1, rows, d)
	w := Randn(rng, 1, d, d).Param()
	arena := NewArena()
	defer arena.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.ZeroGrad()
		Mean(MatMul(x.InArena(arena), w)).Backward()
		arena.Reset()
	}
}

func BenchmarkMatMul(b *testing.B)          { benchmarkMatMul(b, false) }
func BenchmarkMatMulReference(b *testing.B) { benchmarkMatMul(b, true) }

// BenchmarkKernels times each AVX2 kernel against its portable Go kernel at
// the grid's hottest shapes: the [3072,32]·[32,64] dot form of a batched
// linear layer, the [96,96]·[96,8] attention P·V, its dV = Pᵀ·g, a linear
// layer's dW, and the depth-8 attention scores q·kᵀ.
func BenchmarkKernels(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	randSlice := func(n int) []float64 {
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		return x
	}
	type kernel struct {
		name     string
		m, k, n  int
		asm, ref func(dst, a, b []float64, m, k, n int)
		dstLen   func(m, k, n int) int
		bLen     func(m, k, n int) int
	}
	mn := func(m, k, n int) int { return m * n }
	kn := func(m, k, n int) int { return k * n }
	ntStore := func(dst, a, b []float64, m, k, n int) { matmulNTStore(dst, a, b, m, n, k) }
	ntStoreGo := func(dst, a, b []float64, m, k, n int) { matmulNTStoreGo(dst, a, b, m, n, k) }
	kernels := []kernel{
		{"Dot/3072x32x64", 3072, 32, 64, matmulDot, matmulDotGo, mn, kn},
		{"Dot/96x96x8", 96, 96, 8, matmulDot, matmulDotGo, mn, kn},
		{"BwdB/96x96x8", 96, 96, 8, matmulBwdB, matmulBwdBGo, kn, mn},
		{"BwdB/3072x32x64", 3072, 32, 64, matmulBwdB, matmulBwdBGo, kn, mn},
		{"NTStore/96x8x96", 96, 8, 96, ntStore, ntStoreGo, mn, kn},
	}
	for _, kc := range kernels {
		a := randSlice(kc.m * kc.k)
		bb := randSlice(kc.bLen(kc.m, kc.k, kc.n))
		dst := make([]float64, kc.dstLen(kc.m, kc.k, kc.n))
		for _, side := range []struct {
			name string
			f    func(dst, a, b []float64, m, k, n int)
		}{{"asm", kc.asm}, {"go", kc.ref}} {
			b.Run(kc.name+"/"+side.name, func(b *testing.B) {
				if side.name == "asm" && !useAVX2 {
					b.Skip("no AVX2 kernels on this CPU")
				}
				for i := 0; i < b.N; i++ {
					side.f(dst, a, bb, kc.m, kc.k, kc.n)
				}
			})
		}
	}
}
