package nn

// Matmul kernels. The fast path register-blocks over four rows of A so each
// streamed row of B (or of the packed Bᵀ) is reused four times from
// registers, and slices every row once up front so the compiler can
// eliminate bounds checks in the inner loops. Per-output-element summation
// order (p ascending) matches the reference kernels, so forward results are
// bit-compatible; backward kernels regroup additions and agree within
// ~1e-12 (see the differential tests).
//
// On amd64 CPUs with AVX2 the hot kernels run the assembly of
// kernels_amd64.s, which vectorises across output elements only: each
// element gets the Go kernel's products and sums, in its order, so results
// are bit-identical to the Go kernels, which run everywhere else.
//
// Every product that feeds a sum in this package is wrapped in an explicit
// float64 conversion. The Go spec lets a compiler fuse x*y + z into one
// FMA instruction, as it does on arm64, which changes the last bit; an
// explicit conversion forbids the fusion, so every GOARCH computes the same
// bits as amd64.

// getScratch borrows a transient kernel workspace (packed transposes) from
// the global size-class pools, so kernels without an arena in reach stay
// allocation-free in steady state. Pass the returned handle to putScratch
// when done; a nil handle means the request was too large to pool.
func getScratch(n int) (*[]float64, []float64) {
	c := classIndex(n)
	if c < 0 {
		return nil, make([]float64, n)
	}
	if v := classPools[c].Get(); v != nil {
		bp := v.(*[]float64)
		return bp, (*bp)[:n]
	}
	b := make([]float64, 1<<(c+minClassShift))
	return &b, b[:n]
}

func putScratch(bp *[]float64) {
	if bp != nil {
		classPools[classIndex(cap(*bp))].Put(bp)
	}
}

// matmulFwd accumulates dst += a·b for row-major a [m,k], b [k,n],
// dst [m,n]. dst must be pre-initialised (zero, or bias rows for the fused
// linear op).
//
// Large shapes run the dot form (matmulDot): the axpy form below loads and
// stores every dst element k/4 times, while the dot form stores each once,
// which measures 1.4–1.6× faster at training shapes. Both sum the products
// in p-ascending order, but not onto the same start: the dot form sums from
// +0 and adds the sum to dst once, the axpy form adds each product to dst in
// turn and skips zero entries of a. On a zero-initialised dst the two agree
// (up to the sign of a zero result, and 0·Inf products that only the dot
// form computes). On a bias-initialised dst they round differently, so a row
// of LinearFused depends on whether its batch reaches the packed threshold.
// Small or thin shapes keep the axpy form, whose zero-skip wins there.
func matmulFwd(dst, a, b []float64, m, k, n int) {
	if refKernels.Load() {
		matmulFwdRef(dst, a, b, m, k, n)
		return
	}
	if matmulFwdPacks(m, k) {
		matmulDot(dst, a, b, m, k, n)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		r0 := dst[(i+0)*n : (i+0)*n+n]
		r1 := dst[(i+1)*n : (i+1)*n+n]
		r2 := dst[(i+2)*n : (i+2)*n+n]
		r3 := dst[(i+3)*n : (i+3)*n+n]
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := b[p*n : p*n+n]
			for j, bv := range row {
				r0[j] += float64(v0 * bv)
				r1[j] += float64(v1 * bv)
				r2[j] += float64(v2 * bv)
				r3[j] += float64(v3 * bv)
			}
		}
	}
	for ; i < m; i++ {
		ri := dst[i*n : i*n+n]
		ai := a[i*k : i*k+k]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			row := b[p*n : p*n+n]
			for j, bv := range row {
				ri[j] += float64(av * bv)
			}
		}
	}
}

// matmulFwdPacks reports whether matmulFwd computes an [m,k]·[k,n] product
// in the dot form (matmulDot) rather than the axpy form. Ops that compute a
// subset of a MatMul's rows mirror the choice.
func matmulFwdPacks(m, k int) bool { return m >= 16 && k >= 8 }

// Modes of dotTile4AVX2.
const (
	tileStore = 1 << iota // dst = s instead of dst += s
	tileFirst             // s starts from the first product instead of +0
)

// matmulDot accumulates dst += a·b for row-major a [m,k], b [k,n] in the
// dot form: every output element is s = Σₚ a[i,p]·b[p,j], summed in
// ascending p from +0 with each product rounded, then dst[i,j] += s — the
// per-element operations of matmulNT over the packed bᵀ. With AVX2 the
// 4-row × 8-column tiles run in assembly, one output element per vector
// lane, and the remainder rows and columns run dotCols; without it b is
// packed and matmulNT runs.
func matmulDot(dst, a, b []float64, m, k, n int) {
	if useAVX2 && m >= 4 && n >= 8 {
		m4, n8 := m&^3, n&^7
		for i := 0; i < m4; i += 4 {
			dotTile4AVX2(dst[i*n:(i+4)*n], a[i*k:(i+4)*k], b[:k*n], k, n, n8, 0)
		}
		dotCols(dst, a, b, 0, m4, k, n, n8)
		dotCols(dst, a, b, m4, m, k, n, 0)
		return
	}
	matmulDotGo(dst, a, b, m, k, n)
}

// matmulDotGo is matmulDot's portable kernel: matmulNT over a pooled
// packed bᵀ.
func matmulDotGo(dst, a, b []float64, m, k, n int) {
	bp, bt := getScratch(k * n)
	packTranspose(bt, b, k, n)
	matmulNT(dst, a, bt, m, n, k)
	putScratch(bp)
}

// dotCols is matmulDot's scalar form over rows [i0, i1) and columns
// [j0, n), reading b down its columns.
func dotCols(dst, a, b []float64, i0, i1, k, n, j0 int) {
	for i := i0; i < i1; i++ {
		ai := a[i*k : i*k+k]
		di := dst[i*n : i*n+n]
		for j := j0; j < n; j++ {
			var s float64
			for p, av := range ai {
				s += float64(av * b[p*n+j])
			}
			di[j] += s
		}
	}
}

// matmulGradIn accumulates dX += g·wᵀ for g [m,out] and a weight w
// [in,out] — the input gradient of the fused linear ops. It computes
// matmulNT(dX, g, w, m, in, out); with AVX2 it runs matmulDot over a
// pooled packed wᵀ instead, which performs the same operations per element.
func matmulGradIn(dX, g, w []float64, m, in, out int) {
	if useAVX2 && m >= 4 && in >= 8 {
		bp, wt := getScratch(in * out)
		packTranspose(wt, w, in, out)
		matmulDot(dX, g, wt, m, out, in)
		putScratch(bp)
		return
	}
	matmulNT(dX, g, w, m, in, out)
}

// matmulFwdRef is the original triple loop (zero-skip on A elements).
func matmulFwdRef(dst, a, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			bRow := b[p*n : (p+1)*n]
			oRow := dst[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				oRow[j] += float64(av * bRow[j])
			}
		}
	}
}

// packTranspose writes bᵀ into dst: dst[j*k+p] = b[p*n+j]. The packed
// layout makes the p-inner loops of the dA kernels unit-stride.
func packTranspose(dst, b []float64, k, n int) {
	for p := 0; p < k; p++ {
		row := b[p*n : p*n+n]
		for j, v := range row {
			dst[j*k+p] = v
		}
	}
}

// matmulBwdAPacked accumulates dA += g·bᵀ with g [m,n] and bt the packed
// transpose of b ([n,k]): the inner p-loop is unit-stride over both the
// gradient row and the packed row, and the zero-skip check is hoisted to
// one test per gradient element.
func matmulBwdAPacked(dA, g, bt []float64, m, k, n int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		g0 := g[(i+0)*n : (i+0)*n+n]
		g1 := g[(i+1)*n : (i+1)*n+n]
		g2 := g[(i+2)*n : (i+2)*n+n]
		g3 := g[(i+3)*n : (i+3)*n+n]
		d0 := dA[(i+0)*k : (i+0)*k+k]
		d1 := dA[(i+1)*k : (i+1)*k+k]
		d2 := dA[(i+2)*k : (i+2)*k+k]
		d3 := dA[(i+3)*k : (i+3)*k+k]
		for j := 0; j < n; j++ {
			v0, v1, v2, v3 := g0[j], g1[j], g2[j], g3[j]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			bj := bt[j*k : j*k+k]
			for p, bv := range bj {
				d0[p] += float64(v0 * bv)
				d1[p] += float64(v1 * bv)
				d2[p] += float64(v2 * bv)
				d3[p] += float64(v3 * bv)
			}
		}
	}
	for ; i < m; i++ {
		gi := g[i*n : i*n+n]
		di := dA[i*k : i*k+k]
		for j, gv := range gi {
			if gv == 0 {
				continue
			}
			bj := bt[j*k : j*k+k]
			for p, bv := range bj {
				di[p] += float64(gv * bv)
			}
		}
	}
}

// matmulBwdARef is the original dot-product formulation of dA += g·bᵀ
// reading b in its native [k,n] layout.
func matmulBwdARef(dA, g, b []float64, m, k, n int) {
	for i := 0; i < m; i++ {
		for p := 0; p < k; p++ {
			var s float64
			bRow := b[p*n : (p+1)*n]
			gRow := g[i*n : (i+1)*n]
			for j := 0; j < n; j++ {
				s += float64(gRow[j] * bRow[j])
			}
			dA[i*k+p] += s
		}
	}
}

// matmulBwdB accumulates dB += aᵀ·g with a [m,k], g [m,n]. The fast path
// iterates rows of a (unit-stride reads, unlike the reference kernel's
// stride-k column walk) and blocks four rows per pass so each dB row is
// loaded and stored once per four gradient rows. (A packed-dot form like
// matmulFwd's is a loss here: it needs both aᵀ and gᵀ, and those packs
// write [k,m]/[n,m] buffers at stride m — one cache miss per element at
// training shapes.) With AVX2 the four-row blocks run in assembly over the
// columns up to a multiple of 4, with the same grouping and zero-skip.
func matmulBwdB(dB, a, g []float64, m, k, n int) {
	if refKernels.Load() {
		matmulBwdBRef(dB, a, g, m, k, n)
		return
	}
	if useAVX2 && n >= 4 {
		m4, n4 := m&^3, n&^3
		for i := 0; i < m4; i += 4 {
			bwdB4AVX2(dB[:k*n], a[i*k:(i+4)*k], g[i*n:(i+4)*n], k, n, n4)
		}
		bwdBBlocks(dB, a, g, m4, k, n, n4)
		bwdBRows(dB, a, g, m4, m, k, n)
		return
	}
	matmulBwdBGo(dB, a, g, m, k, n)
}

// matmulBwdBGo is matmulBwdB's portable kernel.
func matmulBwdBGo(dB, a, g []float64, m, k, n int) {
	if n == 8 {
		matmulBwdBN8(dB, a, g, m, k)
		return
	}
	bwdBBlocks(dB, a, g, m&^3, k, n, 0)
	bwdBRows(dB, a, g, m&^3, m, k, n)
}

// bwdBBlocks is matmulBwdB's four-row blocks over rows [0, m4) and
// columns [j0, n).
func bwdBBlocks(dB, a, g []float64, m4, k, n, j0 int) {
	for i := 0; i < m4; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		g0 := g[(i+0)*n+j0 : (i+0)*n+n]
		g1 := g[(i+1)*n+j0 : (i+1)*n+n]
		g2 := g[(i+2)*n+j0 : (i+2)*n+n]
		g3 := g[(i+3)*n+j0 : (i+3)*n+n]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := dB[p*n+j0 : p*n+n]
			for j := range row {
				row[j] += float64(v0*g0[j]) + float64(v1*g1[j]) + float64(v2*g2[j]) + float64(v3*g3[j])
			}
		}
	}
}

// bwdBRows is matmulBwdB's single-row tail over rows [i0, m).
func bwdBRows(dB, a, g []float64, i0, m, k, n int) {
	for i := i0; i < m; i++ {
		ai := a[i*k : i*k+k]
		gi := g[i*n : i*n+n]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			row := dB[p*n : p*n+n]
			for j, gv := range gi {
				row[j] += float64(av * gv)
			}
		}
	}
}

// matmulBwdBN8 unrolls matmulBwdB's inner loop for n == 8, the per-head
// gradient width of attention dV and dK at the default d_model: at that
// width the loop counter and bounds checks dominate, and unrolling the
// eight per-element updates (each the same v0·g0+…+v3·g3 sum as the loop
// body, so results are identical) measures well ahead of the generic form.
func matmulBwdBN8(dB, a, g []float64, m, k int) {
	const n = 8
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*k : (i+0)*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k]
		g0 := g[(i+0)*n : (i+0)*n+n]
		g1 := g[(i+1)*n : (i+1)*n+n]
		g2 := g[(i+2)*n : (i+2)*n+n]
		g3 := g[(i+3)*n : (i+3)*n+n]
		for p := 0; p < k; p++ {
			v0, v1, v2, v3 := a0[p], a1[p], a2[p], a3[p]
			if v0 == 0 && v1 == 0 && v2 == 0 && v3 == 0 {
				continue
			}
			row := dB[p*n : p*n+n]
			row[0] += float64(v0*g0[0]) + float64(v1*g1[0]) + float64(v2*g2[0]) + float64(v3*g3[0])
			row[1] += float64(v0*g0[1]) + float64(v1*g1[1]) + float64(v2*g2[1]) + float64(v3*g3[1])
			row[2] += float64(v0*g0[2]) + float64(v1*g1[2]) + float64(v2*g2[2]) + float64(v3*g3[2])
			row[3] += float64(v0*g0[3]) + float64(v1*g1[3]) + float64(v2*g2[3]) + float64(v3*g3[3])
			row[4] += float64(v0*g0[4]) + float64(v1*g1[4]) + float64(v2*g2[4]) + float64(v3*g3[4])
			row[5] += float64(v0*g0[5]) + float64(v1*g1[5]) + float64(v2*g2[5]) + float64(v3*g3[5])
			row[6] += float64(v0*g0[6]) + float64(v1*g1[6]) + float64(v2*g2[6]) + float64(v3*g3[6])
			row[7] += float64(v0*g0[7]) + float64(v1*g1[7]) + float64(v2*g2[7]) + float64(v3*g3[7])
		}
	}
	for ; i < m; i++ {
		ai := a[i*k : i*k+k]
		gi := g[i*n : i*n+n]
		for p, av := range ai {
			if av == 0 {
				continue
			}
			row := dB[p*n : p*n+n]
			row[0] += float64(av * gi[0])
			row[1] += float64(av * gi[1])
			row[2] += float64(av * gi[2])
			row[3] += float64(av * gi[3])
			row[4] += float64(av * gi[4])
			row[5] += float64(av * gi[5])
			row[6] += float64(av * gi[6])
			row[7] += float64(av * gi[7])
		}
	}
}

// matmulBwdBRef is the original dB += aᵀ·g loop (p-outer, strided reads of
// a's columns).
func matmulBwdBRef(dB, a, g []float64, m, k, n int) {
	for p := 0; p < k; p++ {
		for i := 0; i < m; i++ {
			av := a[i*k+p]
			if av == 0 {
				continue
			}
			gRow := g[i*n : (i+1)*n]
			bgRow := dB[p*n : (p+1)*n]
			for j := 0; j < n; j++ {
				bgRow[j] += float64(av * gRow[j])
			}
		}
	}
}

// matmulNT accumulates dst += a·bᵀ for row-major a [m,d], b [n,d],
// dst [m,n] — both operands read with unit stride, so q·kᵀ attention
// scores and the fused-linear dX = g·wᵀ need no transposed copy of the
// right operand. Four rows of a run per pass as independent dot-product
// chains for instruction-level parallelism; the c-ascending summation
// matches the reference MatMul(a, Transpose(b)) order bit for bit.
func matmulNT(dst, a, b []float64, m, n, d int) {
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s0, s1, s2, s3 float64
			for c, bv := range bj {
				s0 += float64(a0[c] * bv)
				s1 += float64(a1[c] * bv)
				s2 += float64(a2[c] * bv)
				s3 += float64(a3[c] * bv)
			}
			d0[j] += s0
			d1[j] += s1
			d2[j] += s2
			d3[j] += s3
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s float64
			for c, av := range ai {
				s += float64(av * bj[c])
			}
			di[j] += s
		}
	}
}

// matmulNTStore is matmulNT with store semantics (dst = a·bᵀ instead of
// dst += a·bᵀ): callers with a fully-overwritten destination skip both the
// zero fill of the buffer and the read-modify-write of each element. Each
// element is ntDot of its rows. With AVX2 the 4-row × 8-column tiles run
// in assembly over a pooled packed bᵀ, in ntDot's order.
func matmulNTStore(dst, a, b []float64, m, n, d int) {
	if useAVX2 && m >= 4 && n >= 8 {
		bp, bt := getScratch(d * n)
		packTranspose(bt, b, n, d)
		m4, n8 := m&^3, n&^7
		for i := 0; i < m4; i += 4 {
			dotTile4AVX2(dst[i*n:(i+4)*n], a[i*d:(i+4)*d], bt, d, n, n8, ntMode(d))
		}
		putScratch(bp)
		ntStoreRows(dst, a, b, 0, m4, n, d, n8)
		ntStoreRows(dst, a, b, m4, m, n, d, 0)
		return
	}
	matmulNTStoreGo(dst, a, b, m, n, d)
}

// ntMode is the dotTile4AVX2 mode that reproduces ntDot at depth d.
func ntMode(d int) int {
	if d == 8 {
		return tileStore | tileFirst
	}
	return tileStore
}

// ntDot is one element of the store-form kernels: the c-ascending dot
// product of ai and bj, summed from +0. At d == 8 — the per-head depth of
// attention scores and dP at the default d_model — it is fully unrolled
// and starts from the first product: the loop-carried counter and bounds
// checks dominate 8-element dots, and unrolling measures ~1.6× faster.
// The two forms differ only in the sign of an all-zero result.
func ntDot(ai, bj []float64) float64 {
	if len(ai) == 8 {
		bj = bj[:8]
		return float64(ai[0]*bj[0]) + float64(ai[1]*bj[1]) + float64(ai[2]*bj[2]) + float64(ai[3]*bj[3]) +
			float64(ai[4]*bj[4]) + float64(ai[5]*bj[5]) + float64(ai[6]*bj[6]) + float64(ai[7]*bj[7])
	}
	var s float64
	for c, av := range ai {
		s += float64(av * bj[c])
	}
	return s
}

// ntStoreRows is the store-form scalar kernel over rows [i0, i1) and
// columns [j0, n).
func ntStoreRows(dst, a, b []float64, i0, i1, n, d, j0 int) {
	for i := i0; i < i1; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := j0; j < n; j++ {
			di[j] = ntDot(ai, b[j*d:j*d+d])
		}
	}
}

// matmulNTStoreGo is matmulNTStore's portable kernel: four rows of a per
// pass as independent dot-product chains, with ntDot's order per element.
func matmulNTStoreGo(dst, a, b []float64, m, n, d int) {
	if d == 8 {
		matmulNTStoreD8(dst, a, b, m, n)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			var s0, s1, s2, s3 float64
			for c, bv := range bj {
				s0 += float64(a0[c] * bv)
				s1 += float64(a1[c] * bv)
				s2 += float64(a2[c] * bv)
				s3 += float64(a3[c] * bv)
			}
			d0[j] = s0
			d1[j] = s1
			d2[j] = s2
			d3[j] = s3
		}
	}
	ntStoreRows(dst, a, b, i, m, n, d, 0)
}

func matmulNTStoreD8(dst, a, b []float64, m, n int) {
	const d = 8
	i := 0
	for ; i+4 <= m; i += 4 {
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < n; j++ {
			bj := b[j*d : j*d+d]
			b0, b1, b2, b3, b4, b5, b6, b7 := bj[0], bj[1], bj[2], bj[3], bj[4], bj[5], bj[6], bj[7]
			d0[j] = float64(a0[0]*b0) + float64(a0[1]*b1) + float64(a0[2]*b2) + float64(a0[3]*b3) + float64(a0[4]*b4) + float64(a0[5]*b5) + float64(a0[6]*b6) + float64(a0[7]*b7)
			d1[j] = float64(a1[0]*b0) + float64(a1[1]*b1) + float64(a1[2]*b2) + float64(a1[3]*b3) + float64(a1[4]*b4) + float64(a1[5]*b5) + float64(a1[6]*b6) + float64(a1[7]*b7)
			d2[j] = float64(a2[0]*b0) + float64(a2[1]*b1) + float64(a2[2]*b2) + float64(a2[3]*b3) + float64(a2[4]*b4) + float64(a2[5]*b5) + float64(a2[6]*b6) + float64(a2[7]*b7)
			d3[j] = float64(a3[0]*b0) + float64(a3[1]*b1) + float64(a3[2]*b2) + float64(a3[3]*b3) + float64(a3[4]*b4) + float64(a3[5]*b5) + float64(a3[6]*b6) + float64(a3[7]*b7)
		}
	}
	ntStoreRows(dst, a, b, i, m, n, d, 0)
}

// matmulNTPrefix is matmulNTStore restricted per output row: row i of dst
// only receives columns j < rowEnd[i]; columns at and past rowEnd[i] are
// left untouched (the attention callers keep them zeroed). The fused
// attention uses it to skip the masked region of causal score matrices
// entirely — for a [T, T] causal mask that halves the score, softmax, and
// dP work. Each computed element is ntDot of its rows, as in
// matmulNTStore. With AVX2 each 4-row block's common prefix, down to a
// multiple of 8 columns, runs as assembly tiles over a pooled packed bᵀ.
func matmulNTPrefix(dst, a, b []float64, m, n, d int, rowEnd []int) {
	if !useAVX2 || m < 4 || n < 8 {
		matmulNTPrefixGo(dst, a, b, m, n, d, rowEnd)
		return
	}
	bp, bt := getScratch(d * n)
	packTranspose(bt, b, n, d)
	i := 0
	for ; i+4 <= m; i += 4 {
		n8 := min(rowEnd[i], rowEnd[i+1], rowEnd[i+2], rowEnd[i+3]) &^ 7
		dotTile4AVX2(dst[i*n:(i+4)*n], a[i*d:(i+4)*d], bt, d, n, n8, ntMode(d))
		for r := i; r < i+4; r++ {
			ar := a[r*d : r*d+d]
			dr := dst[r*n : r*n+n]
			for j := n8; j < rowEnd[r]; j++ {
				dr[j] = ntDot(ar, b[j*d:j*d+d])
			}
		}
	}
	putScratch(bp)
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < rowEnd[i]; j++ {
			di[j] = ntDot(ai, b[j*d:j*d+d])
		}
	}
}

// matmulNTPrefixGo is matmulNTPrefix's portable kernel.
func matmulNTPrefixGo(dst, a, b []float64, m, n, d int, rowEnd []int) {
	if d == 8 {
		matmulNTPrefixD8(dst, a, b, m, n, rowEnd)
		return
	}
	i := 0
	for ; i+4 <= m; i += 4 {
		e0, e1, e2, e3 := rowEnd[i], rowEnd[i+1], rowEnd[i+2], rowEnd[i+3]
		jmin := e0
		if e1 < jmin {
			jmin = e1
		}
		if e2 < jmin {
			jmin = e2
		}
		if e3 < jmin {
			jmin = e3
		}
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < jmin; j++ {
			bj := b[j*d : j*d+d]
			var s0, s1, s2, s3 float64
			for c, bv := range bj {
				s0 += float64(a0[c] * bv)
				s1 += float64(a1[c] * bv)
				s2 += float64(a2[c] * bv)
				s3 += float64(a3[c] * bv)
			}
			d0[j] = s0
			d1[j] = s1
			d2[j] = s2
			d3[j] = s3
		}
		// Per-row tails beyond the block's common prefix.
		for r := 0; r < 4; r++ {
			ar := a[(i+r)*d : (i+r)*d+d]
			dr := dst[(i+r)*n : (i+r)*n+n]
			for j := jmin; j < rowEnd[i+r]; j++ {
				bj := b[j*d : j*d+d]
				var s float64
				for c, av := range ar {
					s += float64(av * bj[c])
				}
				dr[j] = s
			}
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < rowEnd[i]; j++ {
			bj := b[j*d : j*d+d]
			var s float64
			for c, av := range ai {
				s += float64(av * bj[c])
			}
			di[j] = s
		}
	}
}

// matmulNTPrefixD8 is matmulNTPrefix's unrolled depth-8 case (see
// matmulNTStore on why d == 8 earns a dedicated kernel).
func matmulNTPrefixD8(dst, a, b []float64, m, n int, rowEnd []int) {
	const d = 8
	i := 0
	for ; i+4 <= m; i += 4 {
		e0, e1, e2, e3 := rowEnd[i], rowEnd[i+1], rowEnd[i+2], rowEnd[i+3]
		jmin := e0
		if e1 < jmin {
			jmin = e1
		}
		if e2 < jmin {
			jmin = e2
		}
		if e3 < jmin {
			jmin = e3
		}
		a0 := a[(i+0)*d : (i+0)*d+d]
		a1 := a[(i+1)*d : (i+1)*d+d]
		a2 := a[(i+2)*d : (i+2)*d+d]
		a3 := a[(i+3)*d : (i+3)*d+d]
		d0 := dst[(i+0)*n : (i+0)*n+n]
		d1 := dst[(i+1)*n : (i+1)*n+n]
		d2 := dst[(i+2)*n : (i+2)*n+n]
		d3 := dst[(i+3)*n : (i+3)*n+n]
		for j := 0; j < jmin; j++ {
			bj := b[j*d : j*d+d]
			b0, b1, b2, b3, b4, b5, b6, b7 := bj[0], bj[1], bj[2], bj[3], bj[4], bj[5], bj[6], bj[7]
			d0[j] = float64(a0[0]*b0) + float64(a0[1]*b1) + float64(a0[2]*b2) + float64(a0[3]*b3) + float64(a0[4]*b4) + float64(a0[5]*b5) + float64(a0[6]*b6) + float64(a0[7]*b7)
			d1[j] = float64(a1[0]*b0) + float64(a1[1]*b1) + float64(a1[2]*b2) + float64(a1[3]*b3) + float64(a1[4]*b4) + float64(a1[5]*b5) + float64(a1[6]*b6) + float64(a1[7]*b7)
			d2[j] = float64(a2[0]*b0) + float64(a2[1]*b1) + float64(a2[2]*b2) + float64(a2[3]*b3) + float64(a2[4]*b4) + float64(a2[5]*b5) + float64(a2[6]*b6) + float64(a2[7]*b7)
			d3[j] = float64(a3[0]*b0) + float64(a3[1]*b1) + float64(a3[2]*b2) + float64(a3[3]*b3) + float64(a3[4]*b4) + float64(a3[5]*b5) + float64(a3[6]*b6) + float64(a3[7]*b7)
		}
		for r := 0; r < 4; r++ {
			ar := a[(i+r)*d : (i+r)*d+d]
			dr := dst[(i+r)*n : (i+r)*n+n]
			for j := jmin; j < rowEnd[i+r]; j++ {
				dr[j] = ntDot(ar, b[j*d:j*d+d])
			}
		}
	}
	for ; i < m; i++ {
		ai := a[i*d : i*d+d]
		di := dst[i*n : i*n+n]
		for j := 0; j < rowEnd[i]; j++ {
			di[j] = ntDot(ai, b[j*d:j*d+d])
		}
	}
}

// addAcc accumulates dst[i] += src[i]; the shared inner loop of the
// gradient-accumulate paths (Add, AddBias, residuals, Reshape).
func addAcc(dst, src []float64) {
	dst = dst[:len(src)]
	for i, v := range src {
		dst[i] += v
	}
}
