package nn

import (
	"math"
	"math/rand"
	"testing"
)

// TestGradLinearFused finite-difference-checks every activation of the
// fused linear op against the autodiff gradients, for x, w, and b.
func TestGradLinearFused(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, tc := range []struct {
		name string
		act  Activation
	}{
		{"Identity", ActIdentity},
		{"Sigmoid", ActSigmoid},
		{"Tanh", ActTanh},
		{"GELU", ActGELU},
	} {
		x := Randn(rng, 1, 3, 4).Param()
		w := Randn(rng, 1, 4, 5).Param()
		b := Randn(rng, 1, 5).Param()
		c := Randn(rng, 1, 3, 5)
		loss := func() *Tensor {
			x.ZeroGrad()
			w.ZeroGrad()
			b.ZeroGrad()
			return Mean(Mul(LinearFused(x, w, b, tc.act), c))
		}
		checkGrad(t, "LinearFused/"+tc.name+"/X", x, loss, 1e-5)
		checkGrad(t, "LinearFused/"+tc.name+"/W", w, loss, 1e-5)
		checkGrad(t, "LinearFused/"+tc.name+"/B", b, loss, 1e-5)
	}
}

// TestGradLinearFusedReLU keeps pre-activations away from the ReLU kink,
// where a finite difference straddling zero is meaningless.
func TestGradLinearFusedReLU(t *testing.T) {
	x := New([]int{2, 2}, []float64{1, -0.5, 0.25, 2}).Param()
	w := New([]int{2, 2}, []float64{1, 0.5, -0.5, 1}).Param()
	b := New([]int{2}, []float64{0.1, -0.2}).Param()
	c := New([]int{2, 2}, []float64{0.3, -0.7, 1.1, 0.5})
	loss := func() *Tensor {
		x.ZeroGrad()
		w.ZeroGrad()
		b.ZeroGrad()
		return Mean(Mul(LinearFused(x, w, b, ActReLU), c))
	}
	checkGrad(t, "LinearFused/ReLU/X", x, loss, 1e-5)
	checkGrad(t, "LinearFused/ReLU/W", w, loss, 1e-5)
	checkGrad(t, "LinearFused/ReLU/B", b, loss, 1e-5)
}

func TestGradLinearFusedNoBias(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	x := Randn(rng, 1, 3, 4).Param()
	w := Randn(rng, 1, 4, 2).Param()
	c := Randn(rng, 1, 3, 2)
	loss := func() *Tensor {
		x.ZeroGrad()
		w.ZeroGrad()
		return Mean(Mul(LinearFused(x, w, nil, ActTanh), c))
	}
	checkGrad(t, "LinearFused/NoBias/X", x, loss, 1e-5)
	checkGrad(t, "LinearFused/NoBias/W", w, loss, 1e-5)
}

func TestGradAddSigmoidAddTanh(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	a := Randn(rng, 1, 3, 4).Param()
	b := Randn(rng, 1, 3, 4).Param()
	c := Randn(rng, 1, 3, 4)
	sig := func() *Tensor { a.ZeroGrad(); b.ZeroGrad(); return Mean(Mul(AddSigmoid(a, b), c)) }
	checkGrad(t, "AddSigmoid/A", a, sig, 1e-5)
	checkGrad(t, "AddSigmoid/B", b, sig, 1e-5)
	tanh := func() *Tensor { a.ZeroGrad(); b.ZeroGrad(); return Mean(Mul(AddTanh(a, b), c)) }
	checkGrad(t, "AddTanh/A", a, tanh, 1e-5)
	checkGrad(t, "AddTanh/B", b, tanh, 1e-5)
}

func TestGradLerp(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	a := Randn(rng, 1, 3, 4).Param()
	b := Randn(rng, 1, 3, 4).Param()
	w := Randn(rng, 1, 3, 4).Param()
	c := Randn(rng, 1, 3, 4)
	loss := func() *Tensor {
		a.ZeroGrad()
		b.ZeroGrad()
		w.ZeroGrad()
		return Mean(Mul(Lerp(a, b, w), c))
	}
	checkGrad(t, "Lerp/A", a, loss, 1e-5)
	checkGrad(t, "Lerp/B", b, loss, 1e-5)
	checkGrad(t, "Lerp/W", w, loss, 1e-5)
}

func TestGradLinearPairSum(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	a := Randn(rng, 1, 3, 4).Param()
	wa := Randn(rng, 1, 4, 5).Param()
	ba := Randn(rng, 1, 5).Param()
	b := Randn(rng, 1, 3, 6).Param()
	wb := Randn(rng, 1, 6, 5).Param()
	bb := Randn(rng, 1, 5).Param()
	c := Randn(rng, 1, 3, 5)
	loss := func() *Tensor {
		for _, p := range []*Tensor{a, wa, ba, b, wb, bb} {
			p.ZeroGrad()
		}
		return Mean(Mul(LinearPairSum(a, wa, ba, b, wb, bb), c))
	}
	for name, p := range map[string]*Tensor{
		"A": a, "WA": wa, "BA": ba, "B": b, "WB": wb, "BB": bb,
	} {
		checkGrad(t, "LinearPairSum/"+name, p, loss, 1e-5)
	}
}

// TestGradScaledDotAttention finite-difference-checks the fused attention
// gradients for q, k, and v, with and without a causal mask (the masked
// case exercises the prefix-skip kernels).
func TestGradScaledDotAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, tc := range []struct {
		name string
		mask *Tensor
	}{
		{"NoMask", nil},
		{"Causal", CausalMask(5)},
	} {
		q := Randn(rng, 1, 3, 5, 4).Param()
		k := Randn(rng, 1, 3, 5, 4).Param()
		v := Randn(rng, 1, 3, 5, 4).Param()
		c := Randn(rng, 1, 3, 5, 4)
		loss := func() *Tensor {
			q.ZeroGrad()
			k.ZeroGrad()
			v.ZeroGrad()
			return Mean(Mul(ScaledDotAttention(q, k, v, tc.mask, 0.5), c))
		}
		checkGrad(t, "ScaledDotAttention/"+tc.name+"/Q", q, loss, 1e-5)
		checkGrad(t, "ScaledDotAttention/"+tc.name+"/K", k, loss, 1e-5)
		checkGrad(t, "ScaledDotAttention/"+tc.name+"/V", v, loss, 1e-5)
	}
}

// withReferenceKernels runs f under the reference kernel mode and restores
// the fast path afterwards.
func withReferenceKernels(t *testing.T, f func()) {
	t.Helper()
	UseReferenceKernels(true)
	defer UseReferenceKernels(false)
	f()
}

// TestFusedMatchesReference compares each fused op's forward values and
// input gradients between the fast path and the reference decomposition.
// Forward kernels preserve per-element summation order, so outputs agree
// exactly; backward kernels regroup additions, so gradients are held to the
// documented 1e-9.
func TestFusedMatchesReference(t *testing.T) {
	type run struct{ out, gx, gw []float64 }
	eval := func(seed int64, build func(x, w, b *Tensor) *Tensor) run {
		rng := rand.New(rand.NewSource(seed))
		x := Randn(rng, 1, 7, 6).Param()
		w := Randn(rng, 1, 6, 5).Param()
		b := Randn(rng, 1, 5).Param()
		c := Randn(rng, 1, 7, 5)
		y := build(x, w, b)
		Mean(Mul(y, c)).Backward()
		return run{
			out: append([]float64(nil), y.Data...),
			gx:  append([]float64(nil), x.Grad...),
			gw:  append([]float64(nil), w.Grad...),
		}
	}
	for _, tc := range []struct {
		name  string
		build func(x, w, b *Tensor) *Tensor
	}{
		{"LinearFused/Identity", func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, b, ActIdentity) }},
		{"LinearFused/ReLU", func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, b, ActReLU) }},
		{"LinearFused/GELU", func(x, w, b *Tensor) *Tensor { return LinearFused(x, w, b, ActGELU) }},
		{"AddSigmoid", func(x, w, b *Tensor) *Tensor { return AddSigmoid(MatMul(x, w), AddBias(MatMul(x, w), b)) }},
		{"AddTanh", func(x, w, b *Tensor) *Tensor { return AddTanh(MatMul(x, w), AddBias(MatMul(x, w), b)) }},
		{"Lerp", func(x, w, b *Tensor) *Tensor {
			y := MatMul(x, w)
			return Lerp(y, AddBias(y, b), Sigmoid(y))
		}},
		{"LinearPairSum", func(x, w, b *Tensor) *Tensor { return LinearPairSum(x, w, b, Tanh(x), w, b) }},
	} {
		fast := eval(21, tc.build)
		var ref run
		withReferenceKernels(t, func() { ref = eval(21, tc.build) })
		diff := func(kind string, got, want []float64) {
			for i := range want {
				if math.Abs(got[i]-want[i]) > 1e-9 {
					t.Fatalf("%s: %s[%d] fast %v, reference %v", tc.name, kind, i, got[i], want[i])
				}
			}
		}
		diff("out", fast.out, ref.out)
		diff("gx", fast.gx, ref.gx)
		diff("gw", fast.gw, ref.gw)
	}
}

// TestScaledDotAttentionMatchesReference compares the fused attention node
// against the unfused Transpose/MatMul/Scale/MaskedFill/Softmax/MatMul
// chain: forward bit-equal, gradients within 1e-9. The causal mask takes
// the prefix-skip kernels, the scattered mask forces the dense fallback,
// and dh=3 with tq=6 exercises the blocking remainder paths.
func TestScaledDotAttentionMatchesReference(t *testing.T) {
	scattered := Zeros(6, 6)
	for _, ij := range [][2]int{{0, 2}, {1, 0}, {3, 5}, {5, 4}} {
		scattered.Data[ij[0]*6+ij[1]] = 1
	}
	for _, tc := range []struct {
		name string
		mask *Tensor
	}{
		{"NoMask", nil},
		{"Causal", CausalMask(6)},
		{"Scattered", scattered},
	} {
		type run struct{ out, gq, gk, gv []float64 }
		eval := func() run {
			rng := rand.New(rand.NewSource(23))
			q := Randn(rng, 1, 4, 6, 3).Param()
			k := Randn(rng, 1, 4, 6, 3).Param()
			v := Randn(rng, 1, 4, 6, 3).Param()
			c := Randn(rng, 1, 4, 6, 3)
			y := ScaledDotAttention(q, k, v, tc.mask, 0.5)
			Mean(Mul(y, c)).Backward()
			return run{
				out: append([]float64(nil), y.Data...),
				gq:  append([]float64(nil), q.Grad...),
				gk:  append([]float64(nil), k.Grad...),
				gv:  append([]float64(nil), v.Grad...),
			}
		}
		fast := eval()
		var ref run
		withReferenceKernels(t, func() { ref = eval() })
		for i := range ref.out {
			if fast.out[i] != ref.out[i] {
				t.Fatalf("%s: out[%d] fast %v, reference %v (want bit-equal)", tc.name, i, fast.out[i], ref.out[i])
			}
		}
		for kind, pair := range map[string][2][]float64{
			"gq": {fast.gq, ref.gq}, "gk": {fast.gk, ref.gk}, "gv": {fast.gv, ref.gv},
		} {
			for i := range pair[1] {
				if math.Abs(pair[0][i]-pair[1][i]) > 1e-9 {
					t.Fatalf("%s: %s[%d] fast %v, reference %v", tc.name, kind, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// TestMatMulKernelsOddShapes exercises the 4-row blocking remainder paths:
// every m around the block size, including shapes smaller than one block,
// and m around 16, where matmulFwd switches to the dot form (k ≥ 8), with n
// around the 8-column tiles of the AVX2 kernels.
func TestMatMulKernelsOddShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, m := range []int{1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 21} {
		for _, k := range []int{1, 3, 8, 9} {
			for _, n := range []int{1, 5, 8, 9, 16, 17} {
				a := Randn(rng, 1, m, k).Param()
				b := Randn(rng, 1, k, n).Param()
				c := Randn(rng, 1, m, n)
				loss := func() *Tensor { a.ZeroGrad(); b.ZeroGrad(); return Mean(Mul(MatMul(a, b), c)) }
				loss().Backward()
				fOut := append([]float64(nil), MatMul(a, b).Data...)
				fGA := append([]float64(nil), a.Grad...)
				fGB := append([]float64(nil), b.Grad...)
				var rOut, rGA, rGB []float64
				withReferenceKernels(t, func() {
					loss().Backward()
					rOut = append([]float64(nil), MatMul(a, b).Data...)
					rGA = append([]float64(nil), a.Grad...)
					rGB = append([]float64(nil), b.Grad...)
				})
				for i := range rOut {
					if fOut[i] != rOut[i] {
						t.Fatalf("m=%d k=%d n=%d: forward[%d] fast %v, reference %v (want bit-equal)",
							m, k, n, i, fOut[i], rOut[i])
					}
				}
				for i := range rGA {
					if math.Abs(fGA[i]-rGA[i]) > 1e-9 {
						t.Fatalf("m=%d k=%d n=%d: dA[%d] fast %v, reference %v", m, k, n, i, fGA[i], rGA[i])
					}
				}
				for i := range rGB {
					if math.Abs(fGB[i]-rGB[i]) > 1e-9 {
						t.Fatalf("m=%d k=%d n=%d: dB[%d] fast %v, reference %v", m, k, n, i, fGB[i], rGB[i])
					}
				}
			}
		}
	}
}

// TestArenaRecycling verifies the arena contract: Reset recycles buffers
// for same-class reuse, buffers come back zeroed, and Release returns
// everything so a fresh arena still works.
func TestArenaRecycling(t *testing.T) {
	a := NewArena()
	defer a.Release()
	b1 := a.alloc(100)
	for i := range b1 {
		b1[i] = 1
	}
	p1 := &b1[0]
	a.Reset()
	b2 := a.alloc(100)
	if &b2[0] != p1 {
		t.Fatalf("alloc after Reset did not reuse the recycled buffer")
	}
	for i, v := range b2 {
		if v != 0 {
			t.Fatalf("recycled buffer not zeroed at %d: %v", i, v)
		}
	}
	// A second same-class alloc without Reset must get distinct memory.
	b3 := a.alloc(100)
	if &b3[0] == &b2[0] {
		t.Fatalf("live buffer handed out twice")
	}
	a.Release()
	b4 := a.alloc(100)
	for i, v := range b4 {
		if v != 0 {
			t.Fatalf("post-Release buffer not zeroed at %d: %v", i, v)
		}
	}
}

func TestAllocFromFallbacks(t *testing.T) {
	if got := allocFrom(nil, 10); len(got) != 10 {
		t.Fatalf("allocFrom(nil) length %d", len(got))
	}
	// Oversized requests bypass the size classes but still work.
	a := NewArena()
	defer a.Release()
	huge := a.alloc((1 << maxClassShift) + 1)
	if len(huge) != (1<<maxClassShift)+1 {
		t.Fatalf("oversized alloc length %d", len(huge))
	}
	withReferenceKernels(t, func() {
		// Reference mode must not pool: pointers differ across Reset.
		b1 := allocFrom(a, 64)
		p := &b1[0]
		a.Reset()
		b2 := allocFrom(a, 64)
		if &b2[0] == p {
			t.Fatalf("reference mode reused an arena buffer")
		}
	})
}

// TestArenaPropagation verifies the arena tag flows from an input through
// ops to intermediates, but never onto untagged constants.
func TestArenaPropagation(t *testing.T) {
	a := NewArena()
	defer a.Release()
	rng := rand.New(rand.NewSource(41))
	x := Randn(rng, 1, 3, 4).InArena(a)
	w := Randn(rng, 1, 4, 5).Param()
	y := MatMul(x, w)
	if y.arena != a {
		t.Fatalf("MatMul output did not inherit the input arena")
	}
	z := ReLU(y)
	if z.arena != a {
		t.Fatalf("ReLU output did not inherit the arena")
	}
	if w.arena != nil {
		t.Fatalf("parameter unexpectedly tagged with an arena")
	}
}

// TestGradProbSparseAttention finite-difference-checks the ProbSparse
// attention gradients for q, k, and v with both active and lazy queries,
// at a length below the per-row threshold (T=6) and above it (T=18).
func TestGradProbSparseAttention(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tc := range []struct {
		name     string
		tlen, u  int
		heads, d int
	}{
		{"Short", 6, 3, 2, 4},
		{"Rows", 18, 5, 2, 4},
	} {
		q := Randn(rng, 1, tc.heads, tc.tlen, tc.d).Param()
		k := Randn(rng, 1, tc.heads, tc.tlen, tc.d).Param()
		v := Randn(rng, 1, tc.heads, tc.tlen, tc.d).Param()
		c := Randn(rng, 1, tc.heads, tc.tlen, tc.d)
		loss := func() *Tensor {
			q.ZeroGrad()
			k.ZeroGrad()
			v.ZeroGrad()
			return Mean(Mul(ProbSparseAttention(q, k, v, 0.5, tc.u), c))
		}
		checkGrad(t, "ProbSparseAttention/"+tc.name+"/Q", q, loss, 1e-5)
		checkGrad(t, "ProbSparseAttention/"+tc.name+"/K", k, loss, 1e-5)
		checkGrad(t, "ProbSparseAttention/"+tc.name+"/V", v, loss, 1e-5)
	}
}

// attnRun is one attention evaluation: the output and the input gradients.
type attnRun struct{ out, gq, gk, gv []float64 }

// evalProbSparse runs build on seeded [bh, t, d] inputs (poisoned, when
// poison is set) in a gradient arena whose pooled buffers were dirtied by
// a previous step, backpropagates Mean(y⊙c), and returns the result.
func evalProbSparse(seed int64, bh, t, d int, poison func(q, k *Tensor), build func(q, k, v *Tensor) *Tensor) attnRun {
	ar := NewArena()
	defer ar.Release()
	warm := rand.New(rand.NewSource(seed + 1000))
	wq := Randn(warm, 1, bh, t, d).Param()
	wk := Randn(warm, 1, bh, t, d).Param()
	wv := Randn(warm, 1, bh, t, d).Param()
	Mean(build(SplitHeads(wq.InArena(ar), 1), wk, wv)).Backward()
	ar.Reset()

	rng := rand.New(rand.NewSource(seed))
	q := Randn(rng, 1, bh, t, d).Param()
	k := Randn(rng, 1, bh, t, d).Param()
	v := Randn(rng, 1, bh, t, d).Param()
	c := Randn(rng, 1, bh, t, d)
	if poison != nil {
		poison(q, k)
	}
	// SplitHeads with one head is an arena-tagged copy of q, so the op
	// allocates from the (dirty) arena; its gradient lands in q.Grad.
	y := build(SplitHeads(q.InArena(ar), 1), k, v)
	Mean(Mul(y, c)).Backward()
	return attnRun{
		out: append([]float64(nil), y.Data...),
		gq:  append([]float64(nil), q.Grad...),
		gk:  append([]float64(nil), k.Grad...),
		gv:  append([]float64(nil), v.Grad...),
	}
}

// poisonScores plants non-finite values in q and k so that some score rows
// hold a NaN, some a +Inf, some a −Inf among finite scores, one both +Inf
// and −Inf, and one only −Inf. k's first feature is made positive in head 1
// so that a query of (−Inf, 0, …, 0) scores −Inf against every key.
func poisonScores(q, k *Tensor) {
	t, d := q.Shape[1], q.Shape[2]
	q.Data[3*d+1] = math.NaN()      // head 0, query 3: a NaN row
	k.Data[5*d+0] = math.Inf(1)     // head 0, key 5: +Inf or −Inf in every row's column 5
	q.Data[t*d+2*d+1] = math.Inf(1) // head 1, query 2: ±Inf by the sign of each key's feature 1
	for j := 0; j < t; j++ {
		k.Data[t*d+j*d] = math.Abs(k.Data[t*d+j*d]) + 0.1
	}
	row := q.Data[t*d+4*d : t*d+5*d] // head 1, query 4: only −Inf
	for c := range row {
		row[c] = 0
	}
	row[0] = math.Inf(-1)
}

// zeroScores zeroes the last query of head 0 and makes key 2 of head 0
// negative, so that their score is a sum of −0 products: the store-form
// score kernel then writes −0 where the chain's accumulate-into-zero kernel
// writes +0, a difference no later step may observe. (At T=7 the last
// query falls outside matmulFwd's four-row blocks, where the axpy form
// skips each zero element of q.)
func zeroScores(q, k *Tensor) {
	t, d := q.Shape[1], q.Shape[2]
	clear(q.Data[(t-1)*d : t*d])
	for c := 0; c < d; c++ {
		k.Data[2*d+c] = -math.Abs(k.Data[2*d+c]) - 0.1
	}
}

// sameFloat reports bit equality, with any two NaNs equal (a NaN's payload
// depends on which operand the hardware propagates).
func sameFloat(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// TestProbSparseMatchesChain compares the fused ProbSparse node against the
// op chain it replaces, both on the fast kernels: output and every input
// gradient must agree bit for bit, NaN for NaN. The cases cover the per-row
// path (T ≥ 16) and the whole-matrix path (T < 16), no and every query
// active, and score rows with NaN, +Inf, −Inf, and only −Inf.
func TestProbSparseMatchesChain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bh, t, d int
		u        int
		poison   func(q, k *Tensor)
		wantNaN  bool
	}{
		{"Rows", 3, 20, 8, 5, nil, false},
		{"RowsOddDepth", 2, 17, 3, 4, nil, false},
		{"Short", 2, 7, 3, 3, nil, false},
		{"AllLazy", 2, 20, 8, 0, nil, false},
		{"AllActive", 2, 20, 8, 25, nil, false},
		{"ZeroScores", 2, 20, 8, 5, zeroScores, false},
		{"ZeroScoresAllLazy", 2, 20, 8, 0, zeroScores, false},
		{"NonFinite", 2, 20, 8, 5, poisonScores, true},
		{"NonFiniteShort", 2, 7, 3, 3, poisonScores, true},
		{"NonFiniteAllLazy", 2, 20, 8, 0, poisonScores, true},
		// A zero query against an infinite key: the chain's axpy-form score
		// matmul at T < 16 skips the 0·Inf products, its dot form does not.
		{"ZeroTimesInfShort", 2, 7, 3, 3, func(q, k *Tensor) { zeroScores(q, k); poisonScores(q, k) }, true},
		{"ZeroTimesInf", 2, 20, 8, 5, func(q, k *Tensor) { zeroScores(q, k); poisonScores(q, k) }, true},
	} {
		fused := evalProbSparse(61, tc.bh, tc.t, tc.d, tc.poison, func(q, k, v *Tensor) *Tensor {
			return ProbSparseAttention(q, k, v, 0.35, tc.u)
		})
		chain := evalProbSparse(61, tc.bh, tc.t, tc.d, tc.poison, func(q, k, v *Tensor) *Tensor {
			return probSparseChain(q, k, v, 0.35, tc.u)
		})
		sawNaN := false
		for kind, pair := range map[string][2][]float64{
			"out": {fused.out, chain.out}, "gq": {fused.gq, chain.gq},
			"gk": {fused.gk, chain.gk}, "gv": {fused.gv, chain.gv},
		} {
			for i := range pair[1] {
				if !sameFloat(pair[0][i], pair[1][i]) {
					t.Fatalf("%s: %s[%d] fused %v, chain %v (want bit-equal)", tc.name, kind, i, pair[0][i], pair[1][i])
				}
				sawNaN = sawNaN || math.IsNaN(pair[1][i])
			}
		}
		if sawNaN != tc.wantNaN {
			t.Fatalf("%s: NaN in the results = %v, want %v", tc.name, sawNaN, tc.wantNaN)
		}
	}
}

// TestProbSparseInferenceMatchesChain: in an inference arena the op keeps
// one head of attention scratch and builds no graph, and its output still
// equals the chain's bit for bit.
func TestProbSparseInferenceMatchesChain(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bh, t, d int
		poison   func(q, k *Tensor)
	}{
		{"Rows", 3, 20, 8, nil},
		{"Short", 2, 7, 3, nil},
		{"NonFinite", 2, 20, 8, poisonScores},
	} {
		rng := rand.New(rand.NewSource(62))
		q := Randn(rng, 1, tc.bh, tc.t, tc.d)
		k := Randn(rng, 1, tc.bh, tc.t, tc.d)
		v := Randn(rng, 1, tc.bh, tc.t, tc.d)
		if tc.poison != nil {
			tc.poison(q, k)
		}
		want := probSparseChain(q, k, v, 0.35, 5)
		ar := NewInferenceArena()
		got := ProbSparseAttention(q.InArena(ar), k, v, 0.35, 5)
		for i := range want.Data {
			if !sameFloat(got.Data[i], want.Data[i]) {
				t.Fatalf("%s: out[%d] inference %v, chain %v (want bit-equal)", tc.name, i, got.Data[i], want.Data[i])
			}
		}
		ar.Release()
	}
}

// TestProbSparseMatchesReference compares the fused ProbSparse node
// against the chain on the reference kernels: forward bit-equal, gradients
// within the documented 1e-9 of the reference backward kernels.
func TestProbSparseMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		name     string
		bh, t, d int
	}{
		{"Rows", 3, 20, 8},
		{"Short", 2, 7, 3},
	} {
		build := func(q, k, v *Tensor) *Tensor { return ProbSparseAttention(q, k, v, 0.35, 5) }
		fast := evalProbSparse(63, tc.bh, tc.t, tc.d, nil, build)
		var ref attnRun
		withReferenceKernels(t, func() { ref = evalProbSparse(63, tc.bh, tc.t, tc.d, nil, build) })
		for i := range ref.out {
			if fast.out[i] != ref.out[i] {
				t.Fatalf("%s: out[%d] fast %v, reference %v (want bit-equal)", tc.name, i, fast.out[i], ref.out[i])
			}
		}
		for kind, pair := range map[string][2][]float64{
			"gq": {fast.gq, ref.gq}, "gk": {fast.gk, ref.gk}, "gv": {fast.gv, ref.gv},
		} {
			for i := range pair[1] {
				if math.Abs(pair[0][i]-pair[1][i]) > 1e-9 {
					t.Fatalf("%s: %s[%d] fast %v, reference %v", tc.name, kind, i, pair[0][i], pair[1][i])
				}
			}
		}
	}
}

// arenaFloats is the pooled float64 capacity an arena has handed out since
// its last Reset.
func arenaFloats(a *Arena) int {
	n := 0
	for _, bp := range a.live {
		n += cap(*bp)
	}
	return n
}

// TestInferenceArenaBuildsNoGraph runs one forward pass through every op
// family of the deep models in a gradient arena and in an inference arena.
// The outputs must agree bit for bit; the inference pass must link no node
// into a graph (no Grad buffer, parents, or backward closure) and hold less
// arena memory than the gradient pass minus that pass's Grad buffers.
func TestInferenceArenaBuildsNoGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	const b, tlen, d, heads = 2, 20, 8, 2
	mha := NewMultiHeadAttention(rng, d, heads)
	ln := NewLayerNorm(d)
	ff := NewLinear(rng, d, d)
	conv := NewConv1D(rng, 3, d, d)
	gru := NewGRUCell(rng, d, d)
	pe := NewPositionalEncoding(tlen, d)
	wa, wb := NewLinear(rng, tlen, 4), NewLinear(rng, tlen, 4)
	mask := CausalMask(tlen)
	xData := Randn(rng, 1, b, tlen, d).Data
	forward := func(a *Arena) *Tensor {
		x := New([]int{b, tlen, d}, append([]float64(nil), xData...)).InArena(a)
		h := ln.Forward(Add(pe.Add(x), mha.Forward(x, x, x, mask)))
		h = Add(h, mha.Forward(h, h, h, nil))
		s := SplitHeads(h, heads)
		h = Add(h, MergeHeads(ProbSparseAttention(s, s, s, 0.5, 4), heads))
		h = MaxPool1D(ELU(conv.Forward(h)), 3, 2) // [b, tlen/2, d]
		h = ff.ForwardAct(h, ActGELU)
		step := Reshape(Narrow(h, 1, 0, 1), b, d)
		g := gru.Step(step, ZerosLike(step, b, d))
		flat := Reshape(Narrow(Transpose(Reshape(x, b, tlen, d)), 1, 0, 1), b, tlen)
		lin := LinearPairSum(MovingAvg1D(flat, 5), wa.W, wa.B, flat, wb.W, wb.B)
		return Concat(1, g, Dropout(lin, 0.1, rng, false), Sigmoid(Tanh(MatMul(g, ff.W))))
	}
	gr := NewArena()
	defer gr.Release()
	inf := NewInferenceArena()
	defer inf.Release()
	want := forward(gr)
	got := forward(inf)
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("out[%d]: inference %v, gradient arena %v (want bit-equal)", i, got.Data[i], want.Data[i])
		}
	}
	if !want.RequiresGrad() || got.RequiresGrad() {
		t.Fatalf("RequiresGrad: gradient arena %v, inference arena %v", want.RequiresGrad(), got.RequiresGrad())
	}
	for i, n := range inf.nodeLive {
		if n.Grad != nil || len(n.parents) != 0 || n.backward != nil || n.requiresGrad {
			t.Fatalf("inference node %d (shape %v) is linked into a graph", i, n.Shape)
		}
	}
	gradBufs := 0
	for _, n := range gr.nodeLive {
		gradBufs += cap(n.Grad)
	}
	if gradBufs == 0 {
		t.Fatal("the gradient arena allocated no Grad buffers")
	}
	if fi, fg := arenaFloats(inf), arenaFloats(gr); fi+gradBufs > fg {
		t.Fatalf("inference arena holds %d floats; gradient arena %d, of which %d Grad", fi, fg, gradBufs)
	}
}
