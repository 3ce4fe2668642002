package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// The AVX2 kernels must compute every output element with the operations of
// the portable Go kernels, in the same order, so the property tests below
// compare them bit for bit on shapes around every block edge and on
// operands full of the values where reordering or fusing would show: ±0,
// NaN, ±Inf, subnormals, products that overflow, and all-zero rows of A
// (matmulBwdB's skip).

var (
	kernelMs = []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21}
	kernelKs = []int{0, 1, 7, 8, 9, 33, 96}
	kernelNs = []int{1, 3, 4, 7, 8, 9, 15, 16, 17, 24, 64}
)

var specialValues = []float64{
	0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1),
	5e-324, -5e-324, 2.2e-308, -1.5e-310, math.MaxFloat64, -1e300, 1e-300,
}

// specialOperand returns n values: mostly normal draws, with special values
// mixed in, and (when width > 0) some rows of that width set to all ±0.
func specialOperand(rng *rand.Rand, n, width int) []float64 {
	x := make([]float64, n)
	for i := range x {
		switch r := rng.Intn(10); {
		case r < 2:
			x[i] = specialValues[rng.Intn(len(specialValues))]
		default:
			x[i] = rng.NormFloat64()
		}
	}
	if width > 0 {
		for r := 0; r*width < n; r++ {
			if rng.Intn(3) == 0 {
				for j := r * width; j < (r+1)*width && j < n; j++ {
					x[j] = math.Copysign(0, float64(rng.Intn(2)*2-1))
				}
			}
		}
	}
	return x
}

// finiteOperand is specialOperand without NaN or infinities, so that the
// zero signs and roundings of long sums stay visible in the outputs.
func finiteOperand(rng *rand.Rand, n, width int) []float64 {
	x := specialOperand(rng, n, width)
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e200 {
			x[i] = rng.NormFloat64()
		}
	}
	return x
}

// sameBits reports whether x and y are the same float64 bit pattern. Any
// two NaNs count as equal: which operand's payload an x86 add or multiply
// propagates depends on operand order, which the Go compiler is free to
// commute, so the payload is not part of any kernel's contract.
func sameBits(x, y float64) bool {
	return math.Float64bits(x) == math.Float64bits(y) || (math.IsNaN(x) && math.IsNaN(y))
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("%s: [%d] = %v (%#016x), want %v (%#016x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// forEachKernelCase runs f over every shape with both operand generators.
func forEachKernelCase(t *testing.T, f func(name string, rng *rand.Rand, m, k, n int, gen func(*rand.Rand, int, int) []float64)) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this CPU")
	}
	gens := []struct {
		name string
		gen  func(*rand.Rand, int, int) []float64
	}{{"special", specialOperand}, {"finite", finiteOperand}}
	rng := rand.New(rand.NewSource(13))
	for _, m := range kernelMs {
		for _, k := range kernelKs {
			for _, n := range kernelNs {
				for _, g := range gens {
					f(fmt.Sprintf("m=%d k=%d n=%d %s", m, k, n, g.name), rng, m, k, n, g.gen)
				}
			}
		}
	}
}

func TestDotKernelMatchesGo(t *testing.T) {
	forEachKernelCase(t, func(name string, rng *rand.Rand, m, k, n int, gen func(*rand.Rand, int, int) []float64) {
		a := gen(rng, m*k, k)
		b := gen(rng, k*n, 0)
		dst := gen(rng, m*n, 0)
		want := append([]float64(nil), dst...)
		matmulDot(dst, a, b, m, k, n)
		matmulDotGo(want, a, b, m, k, n)
		requireSameBits(t, name, dst, want)
	})
}

func TestGradInKernelMatchesGo(t *testing.T) {
	// g [m,k] against a weight w [n,k]: dX [m,n] += g·wᵀ.
	forEachKernelCase(t, func(name string, rng *rand.Rand, m, k, n int, gen func(*rand.Rand, int, int) []float64) {
		g := gen(rng, m*k, k)
		w := gen(rng, n*k, 0)
		dst := gen(rng, m*n, 0)
		want := append([]float64(nil), dst...)
		matmulGradIn(dst, g, w, m, n, k)
		matmulNT(want, g, w, m, n, k)
		requireSameBits(t, name, dst, want)
	})
}

func TestNTStoreKernelMatchesGo(t *testing.T) {
	// a [m,k] against b [n,k]: dst [m,n] = a·bᵀ, unrolled at k == 8.
	forEachKernelCase(t, func(name string, rng *rand.Rand, m, k, n int, gen func(*rand.Rand, int, int) []float64) {
		a := gen(rng, m*k, k)
		b := gen(rng, n*k, 0)
		dst := gen(rng, m*n, 0)
		want := append([]float64(nil), dst...)
		matmulNTStore(dst, a, b, m, n, k)
		matmulNTStoreGo(want, a, b, m, n, k)
		requireSameBits(t, name, dst, want)
	})
}

func TestNTPrefixKernelMatchesGo(t *testing.T) {
	forEachKernelCase(t, func(name string, rng *rand.Rand, m, k, n int, gen func(*rand.Rand, int, int) []float64) {
		a := gen(rng, m*k, k)
		b := gen(rng, n*k, 0)
		rowEnd := make([]int, m)
		for i := range rowEnd {
			switch rng.Intn(3) {
			case 0:
				rowEnd[i] = n
			case 1:
				rowEnd[i] = min(i+1, n) // causal
			default:
				rowEnd[i] = rng.Intn(n + 1)
			}
		}
		dst := gen(rng, m*n, 0)
		want := append([]float64(nil), dst...)
		matmulNTPrefix(dst, a, b, m, n, k, rowEnd)
		matmulNTPrefixGo(want, a, b, m, n, k, rowEnd)
		requireSameBits(t, name, dst, want)
	})
}

func TestBwdBKernelMatchesGo(t *testing.T) {
	forEachKernelCase(t, func(name string, rng *rand.Rand, m, k, n int, gen func(*rand.Rand, int, int) []float64) {
		a := gen(rng, m*k, k)
		g := gen(rng, m*n, 0)
		dB := gen(rng, k*n, 0)
		want := append([]float64(nil), dB...)
		matmulBwdB(dB, a, g, m, k, n)
		matmulBwdBGo(want, a, g, m, k, n)
		requireSameBits(t, name, dB, want)
	})
}

// TestBwdBKernelSkipsZeroBlocks pins the zero-skip: an all-zero block of a
// against an infinite gradient leaves dB untouched (0·Inf would be NaN),
// and a -0 dB entry keeps its sign (adding a +0 sum would clear it).
func TestBwdBKernelSkipsZeroBlocks(t *testing.T) {
	const m, k, n = 4, 3, 8
	a := make([]float64, m*k)
	a[1] = math.Copysign(0, -1)
	g := make([]float64, m*n)
	for i := range g {
		g[i] = math.Inf(1)
	}
	dB := make([]float64, k*n)
	for i := range dB {
		dB[i] = math.Copysign(0, -1)
	}
	want := append([]float64(nil), dB...)
	matmulBwdB(dB, a, g, m, k, n)
	requireSameBits(t, "all-zero a", dB, want)
}
