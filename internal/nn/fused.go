package nn

import (
	"fmt"
	"math"
)

// Fused ops collapse the hottest op chains of the paper's five deep models
// into single autodiff nodes: one output buffer, one backward closure, and
// blocked kernels inside. Under the reference-kernel switch each fused op
// decomposes into the original op chain, so the fused and reference paths
// build equivalent graphs for differential testing.

// Activation selects the nonlinearity fused into LinearFused.
type Activation int

const (
	ActIdentity Activation = iota
	ActReLU
	ActSigmoid
	ActTanh
	ActGELU
)

const geluC = 0.7978845608028654 // sqrt(2/pi)

// applyActRef applies the activation as a standalone reference op.
func applyActRef(t *Tensor, act Activation) *Tensor {
	switch act {
	case ActIdentity:
		return t
	case ActReLU:
		return ReLU(t)
	case ActSigmoid:
		return Sigmoid(t)
	case ActTanh:
		return Tanh(t)
	case ActGELU:
		return GELU(t)
	}
	panic(fmt.Sprintf("nn: unknown activation %d", act))
}

// applyActInPlace overwrites buf with act(buf).
func applyActInPlace(buf []float64, act Activation) {
	switch act {
	case ActIdentity:
	case ActReLU:
		for i, v := range buf {
			if v < 0 {
				buf[i] = 0
			}
		}
	case ActSigmoid:
		for i, v := range buf {
			buf[i] = 1 / (1 + math.Exp(-v))
		}
	case ActTanh:
		for i, v := range buf {
			buf[i] = math.Tanh(v)
		}
	case ActGELU:
		for i, x := range buf {
			buf[i] = 0.5 * x * (1 + math.Tanh(geluC*(x+float64(0.044715*x*x*x))))
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", act))
	}
}

// actGradInto writes dpre[i] = g[i]·act'(pre)[i] using the activation
// output y (and, for GELU, the saved pre-activation values).
func actGradInto(dpre, g, y, preact []float64, act Activation) {
	switch act {
	case ActReLU:
		for i, gv := range g {
			if y[i] > 0 {
				dpre[i] = gv
			} else {
				dpre[i] = 0
			}
		}
	case ActSigmoid:
		for i, gv := range g {
			s := y[i]
			dpre[i] = gv * s * (1 - s)
		}
	case ActTanh:
		for i, gv := range g {
			t := y[i]
			dpre[i] = gv * (1 - float64(t*t))
		}
	case ActGELU:
		for i, gv := range g {
			x := preact[i]
			t := math.Tanh(geluC * (x + float64(0.044715*x*x*x)))
			dt := (1 - float64(t*t)) * geluC * (1 + float64(3*0.044715*x*x))
			dpre[i] = gv * (float64(0.5*(1+t)) + float64(0.5*x*dt))
		}
	default:
		panic(fmt.Sprintf("nn: unknown activation %d", act))
	}
}

// LinearFused computes act(x·w + b) as a single node: the bias is written
// into the output rows, the blocked matmul accumulates on top, and the
// activation is applied in place — one buffer instead of three, one
// backward closure instead of three. b may be nil (no bias); w has shape
// [in, out]; x has shape [..., in].
func LinearFused(x, w, b *Tensor, act Activation) *Tensor {
	if len(w.Shape) != 2 {
		panic(fmt.Sprintf("nn: LinearFused weight shape %v", w.Shape))
	}
	in, out := w.Shape[0], w.Shape[1]
	if len(x.Shape) < 1 || x.Dim(-1) != in {
		panic(fmt.Sprintf("nn: LinearFused input %v for weight %v", x.Shape, w.Shape))
	}
	if b != nil && (len(b.Shape) != 1 || b.Shape[0] != out) {
		panic(fmt.Sprintf("nn: LinearFused bias shape %v, want [%d]", b.Shape, out))
	}
	if refKernels.Load() {
		y := MatMul(x, w)
		if b != nil {
			y = AddBias(y, b)
		}
		return applyActRef(y, act)
	}
	rows := len(x.Data) / in
	ar := arenaOf(x)
	var data []float64
	if b != nil {
		// The bias rows initialise every element, so the buffer can skip
		// its zero fill; the matmul accumulates on top.
		data = allocFromUninit(ar, rows*out)
		for r := 0; r < rows; r++ {
			copy(data[r*out:(r+1)*out], b.Data)
		}
	} else {
		data = allocFrom(ar, rows*out)
	}
	matmulFwd(data, x.Data, w.Data, rows, in, out)
	var preact []float64
	if act == ActGELU && !noGrad(ar) {
		preact = allocFromUninit(ar, rows*out)
		copy(preact, data)
	}
	applyActInPlace(data, act)
	outShape := append(append([]int(nil), x.Shape[:len(x.Shape)-1]...), out)
	if noGrad(ar) {
		// Inference: result would drop the closure, so skip allocating it.
		return result(outShape, data, nil, x)
	}
	back := func(o *Tensor) {
		dpre := o.Grad
		if act != ActIdentity {
			dpre = allocFromUninit(o.arena, len(o.Grad))
			actGradInto(dpre, o.Grad, o.Data, preact, act)
		}
		if b != nil && b.requiresGrad {
			for r := 0; r < rows; r++ {
				addAcc(b.Grad, dpre[r*out:(r+1)*out])
			}
		}
		if w.requiresGrad {
			matmulBwdB(w.Grad, x.Data, dpre, rows, in, out)
		}
		if x.requiresGrad {
			matmulGradIn(x.Grad, dpre, w.Data, rows, in, out) // dX = g·wᵀ
		}
	}
	if b != nil {
		return result(outShape, data, back, x, w, b)
	}
	return result(outShape, data, back, x, w)
}

// AddSigmoid computes sigmoid(a + b) in one node — the GRU gate chain.
func AddSigmoid(a, b *Tensor) *Tensor {
	if refKernels.Load() {
		return Sigmoid(Add(a, b))
	}
	sameShape(a, b)
	data := allocFromUninit(arenaOf2(a, b), len(a.Data))
	for i := range data {
		data[i] = 1 / (1 + math.Exp(-(a.Data[i] + b.Data[i])))
	}
	if noGrad(arenaOf2(a, b)) {
		return result(a.Shape, data, nil, a, b)
	}
	return result(a.Shape, data, func(out *Tensor) {
		ag, bg := a.requiresGrad, b.requiresGrad
		for i, g := range out.Grad {
			s := out.Data[i]
			d := float64(g * s * (1 - s))
			if ag {
				a.Grad[i] += d
			}
			if bg {
				b.Grad[i] += d
			}
		}
	}, a, b)
}

// AddTanh computes tanh(a + b) in one node — the GRU candidate chain.
func AddTanh(a, b *Tensor) *Tensor {
	if refKernels.Load() {
		return Tanh(Add(a, b))
	}
	sameShape(a, b)
	data := allocFromUninit(arenaOf2(a, b), len(a.Data))
	for i := range data {
		data[i] = math.Tanh(a.Data[i] + b.Data[i])
	}
	if noGrad(arenaOf2(a, b)) {
		return result(a.Shape, data, nil, a, b)
	}
	return result(a.Shape, data, func(out *Tensor) {
		ag, bg := a.requiresGrad, b.requiresGrad
		for i, g := range out.Grad {
			t := out.Data[i]
			d := float64(g * (1 - float64(t*t)))
			if ag {
				a.Grad[i] += d
			}
			if bg {
				b.Grad[i] += d
			}
		}
	}, a, b)
}

// Lerp computes (1−w)⊙a + w⊙b in one node — the GRU state update, which
// previously cost five ops (a ones tensor, Sub, two Muls, and an Add).
func Lerp(a, b, w *Tensor) *Tensor {
	if refKernels.Load() {
		ones := Full(1, w.Shape...)
		return Add(Mul(Sub(ones, w), a), Mul(w, b))
	}
	sameShape(a, b)
	sameShape(a, w)
	data := allocFromUninit(arenaOf2(a, b), len(a.Data))
	for i := range data {
		wv := w.Data[i]
		data[i] = float64((1-wv)*a.Data[i]) + float64(wv*b.Data[i])
	}
	if noGrad(arenaOf2(a, b)) {
		return result(a.Shape, data, nil, a, b, w)
	}
	return result(a.Shape, data, func(out *Tensor) {
		ag, bg, wg := a.requiresGrad, b.requiresGrad, w.requiresGrad
		for i, g := range out.Grad {
			wv := w.Data[i]
			if ag {
				a.Grad[i] += float64(g * (1 - wv))
			}
			if bg {
				b.Grad[i] += float64(g * wv)
			}
			if wg {
				w.Grad[i] += float64(g * (b.Data[i] - a.Data[i]))
			}
		}
	}, a, b, w)
}

// LinearPairSum computes (a·wa + ba) + (b·wb + bb) in one node — the
// DLinear forward (trend head plus seasonal head) without the two
// intermediate projections and the final Add.
func LinearPairSum(a, wa, ba, b, wb, bb *Tensor) *Tensor {
	if refKernels.Load() {
		return Add(AddBias(MatMul(a, wa), ba), AddBias(MatMul(b, wb), bb))
	}
	ina, out := wa.Shape[0], wa.Shape[1]
	inb := wb.Shape[0]
	if a.Dim(-1) != ina || b.Dim(-1) != inb || wb.Shape[1] != out {
		panic(fmt.Sprintf("nn: LinearPairSum shapes %v·%v + %v·%v", a.Shape, wa.Shape, b.Shape, wb.Shape))
	}
	if ba.Shape[0] != out || bb.Shape[0] != out {
		panic("nn: LinearPairSum bias shapes")
	}
	rows := len(a.Data) / ina
	if len(b.Data)/inb != rows {
		panic("nn: LinearPairSum row mismatch")
	}
	ar := arenaOf2(a, b)
	data := allocFromUninit(ar, rows*out)
	for r := 0; r < rows; r++ {
		row := data[r*out : (r+1)*out]
		for j := range row {
			row[j] = ba.Data[j] + bb.Data[j]
		}
	}
	matmulFwd(data, a.Data, wa.Data, rows, ina, out)
	matmulFwd(data, b.Data, wb.Data, rows, inb, out)
	outShape := append(append([]int(nil), a.Shape[:len(a.Shape)-1]...), out)
	return result(outShape, data, func(o *Tensor) {
		g := o.Grad
		for _, side := range [2]struct {
			x, w, bias *Tensor
			in         int
		}{{a, wa, ba, ina}, {b, wb, bb, inb}} {
			if side.bias.requiresGrad {
				for r := 0; r < rows; r++ {
					addAcc(side.bias.Grad, g[r*out:(r+1)*out])
				}
			}
			if side.w.requiresGrad {
				matmulBwdB(side.w.Grad, side.x.Data, g, rows, side.in, out)
			}
			if side.x.requiresGrad {
				matmulGradIn(side.x.Grad, g, side.w.Data, rows, side.in, out)
			}
		}
	}, a, wa, ba, b, wb, bb)
}

// ScaledDotAttention computes softmax(scale·q·kᵀ + mask)·v as a single
// node, replacing the six-op chain (Transpose, MatMul, Scale, mask
// expansion, MaskedFill, Softmax, MatMul) of multi-head attention. q has
// shape [BH, Tq, Dh]; k and v have shape [BH, Tk, Dh]; a non-nil mask of
// shape [Tq, Tk] blocks attention where mask != 0 (as MaskedFill with
// -1e9, shared across the batch-head dimension). Only the softmax output
// is retained for the backward pass — the [BH, Tq, Tk] score gradient
// buffers of the unfused chain are never materialised.
func ScaledDotAttention(q, k, v, mask *Tensor, scale float64) *Tensor {
	if refKernels.Load() {
		scores := Scale(MatMul(q, Transpose(k)), scale)
		if mask != nil {
			bh, tq, tk := scores.Shape[0], scores.Shape[1], scores.Shape[2]
			big := ZerosLike(scores, bh, tq, tk)
			for i := 0; i < bh; i++ {
				copy(big.Data[i*tq*tk:(i+1)*tq*tk], mask.Data)
			}
			scores = MaskedFill(scores, big, -1e9)
		}
		return MatMul(Softmax(scores), v)
	}
	bh, tq, dh := q.Shape[0], q.Shape[1], q.Shape[2]
	tk := k.Shape[1]
	if k.Shape[0] != bh || v.Shape[0] != bh || v.Shape[1] != tk || k.Shape[2] != dh || v.Shape[2] != dh {
		panic(fmt.Sprintf("nn: ScaledDotAttention shapes q %v, k %v, v %v", q.Shape, k.Shape, v.Shape))
	}
	if mask != nil && (len(mask.Shape) != 2 || mask.Shape[0] != tq || mask.Shape[1] != tk) {
		panic(fmt.Sprintf("nn: ScaledDotAttention mask %v, want [%d %d]", mask.Shape, tq, tk))
	}
	ar := arenaOf(q)
	// Prefix masks (each row blocks a contiguous suffix of columns, as
	// causal masks do) let the kernels skip the blocked region outright
	// instead of computing scores that the -1e9 fill would zero anyway:
	// masked probabilities are exactly 0 either way (exp underflows), so the
	// shortcut is value-identical. rowEnd[i] is the exclusive end of row i's
	// computed region; a nil rowEnd means a dense (or absent) mask.
	var rowEnd []int
	if mask != nil {
		rowEnd = make([]int, tq)
		for i := 0; i < tq && rowEnd != nil; i++ {
			mrow := mask.Data[i*tk : (i+1)*tk]
			e := 0
			for e < tk && mrow[e] == 0 {
				e++
			}
			// A fully masked row softmaxes to uniform in the reference
			// chain, which the skip cannot reproduce — fall back.
			if e == 0 {
				rowEnd = nil
				break
			}
			for j := e; j < tk; j++ {
				if mrow[j] == 0 {
					rowEnd = nil
					break
				}
			}
			if rowEnd != nil {
				rowEnd[i] = e
			}
		}
	}
	// probs holds the scores in place until the row softmax overwrites them.
	// The prefix path needs the masked suffixes zeroed (they stay exactly 0
	// through the whole op); the dense path overwrites every element.
	// Backward reads every head's probabilities; an inference arena keeps
	// one head's [Tq, Tk] scratch instead, reused head after head.
	keep := !noGrad(ar)
	n := tq * tk
	if keep {
		n *= bh
	}
	var probs []float64
	if rowEnd != nil {
		probs = allocFrom(ar, n)
	} else {
		probs = allocFromUninit(ar, n)
	}
	data := allocFrom(ar, bh*tq*dh)
	for b := 0; b < bh; b++ {
		qb := q.Data[b*tq*dh : (b+1)*tq*dh]
		kb := k.Data[b*tk*dh : (b+1)*tk*dh]
		pb := probs
		if keep {
			pb = probs[b*tq*tk : (b+1)*tq*tk]
		}
		if rowEnd != nil {
			matmulNTPrefix(pb, qb, kb, tq, tk, dh, rowEnd)
		} else {
			matmulNTStore(pb, qb, kb, tq, tk, dh)
		}
		for i := 0; i < tq; i++ {
			row := pb[i*tk : (i+1)*tk]
			if rowEnd != nil {
				row = row[:rowEnd[i]] // masked suffix stays exactly 0
			}
			sc := scale
			if sc <= 0 || (rowEnd == nil && mask != nil) {
				// Pre-scale when the fold below needs a positive scale, or
				// when a dense mask must overwrite scaled scores with -1e9.
				for j := range row {
					row[j] *= scale
				}
				if rowEnd == nil && mask != nil {
					mrow := mask.Data[i*tk : (i+1)*tk]
					for j, mv := range mrow {
						if mv != 0 {
							row[j] = -1e9
						}
					}
				}
				sc = 1
			}
			// Numerically stable softmax with the scale multiply folded into
			// the exp pass, saving a write+read sweep over the score matrix.
			// Rounding is monotone, so for sc > 0 max(row)·sc equals the max
			// over the individually scaled elements bit for bit, and each exp
			// argument s·sc − maxS uses the exact products of the unfused
			// Scale-then-Softmax chain — results are unchanged. (sc == 1
			// reduces to the plain softmax: x·1 is exact.)
			maxV := row[0]
			for _, s := range row {
				if s > maxV {
					maxV = s
				}
			}
			maxS := float64(maxV * sc)
			var sum float64
			for j, s := range row {
				row[j] = math.Exp(float64(s*sc) - maxS)
				sum += row[j]
			}
			for j := range row {
				row[j] /= sum
			}
		}
		matmulFwd(data[b*tq*dh:(b+1)*tq*dh], pb, v.Data[b*tk*dh:(b+1)*tk*dh], tq, tk, dh)
	}
	if !keep {
		return result([]int{bh, tq, dh}, data, nil, q, k, v)
	}
	back := func(o *Tensor) {
		// Per-batch-head dP/dS scratch. The store-form kernels overwrite the
		// live region each head; on the prefix path one upfront clear keeps
		// the never-written masked suffixes at zero for the dQ/dK matmuls.
		dp := allocFromUninit(o.arena, tq*tk)
		if rowEnd != nil {
			clear(dp)
		}
		for b := 0; b < bh; b++ {
			gb := o.Grad[b*tq*dh : (b+1)*tq*dh]
			pb := probs[b*tq*tk : (b+1)*tq*tk]
			vb := v.Data[b*tk*dh : (b+1)*tk*dh]
			if rowEnd != nil {
				matmulNTPrefix(dp, gb, vb, tq, tk, dh, rowEnd) // dP = g·vᵀ, live region only
			} else {
				matmulNTStore(dp, gb, vb, tq, tk, dh) // dP = g·vᵀ
			}
			if v.requiresGrad {
				matmulBwdB(v.Grad[b*tk*dh:(b+1)*tk*dh], pb, gb, tq, tk, dh) // dV += Pᵀ·g
			}
			// Softmax backward folded with the scale: dS = scale·P⊙(dP−dot).
			// Masked entries have P exactly 0, so dS vanishes there just as
			// the MaskedFill backward zeroes them in the reference chain —
			// on the prefix path they are skipped and dp stays cleared.
			for i := 0; i < tq; i++ {
				e := tk
				if rowEnd != nil {
					e = rowEnd[i]
				}
				prow := pb[i*tk : i*tk+e]
				drow := dp[i*tk : i*tk+e]
				var dot float64
				for j := range prow {
					dot += float64(prow[j] * drow[j])
				}
				for j := range prow {
					drow[j] = scale * (prow[j] * (drow[j] - dot))
				}
			}
			if q.requiresGrad {
				matmulFwd(q.Grad[b*tq*dh:(b+1)*tq*dh], dp, k.Data[b*tk*dh:(b+1)*tk*dh], tq, tk, dh) // dQ += dS·k
			}
			if k.requiresGrad {
				matmulBwdB(k.Grad[b*tk*dh:(b+1)*tk*dh], dp, q.Data[b*tq*dh:(b+1)*tq*dh], tq, tk, dh) // dK += dSᵀ·q
			}
		}
	}
	return result([]int{bh, tq, dh}, data, back, q, k, v)
}

// ZerosLike returns a zero constant tensor allocated from src's arena (a
// plain allocation when src carries none), for per-forward scratch
// constants such as attention masks and initial recurrent states.
func ZerosLike(src *Tensor, shape ...int) *Tensor {
	return &Tensor{
		Data:  allocFrom(src.arena, Numel(shape)),
		Shape: append([]int(nil), shape...),
		arena: src.arena,
	}
}
