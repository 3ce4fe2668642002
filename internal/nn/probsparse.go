package nn

import (
	"fmt"
	"math"
)

// ProbSparseAttention is Informer's ProbSparse self-attention (Zhou et al.,
// AAAI 2021) over split heads, as a single node. q, k and v have shape
// [BH, T, Dh]. Per batch-head it computes the scaled scores
// S = scale·q·kᵀ and ranks the queries by the sparsity measurement
// M(qᵢ) = maxⱼ Sᵢⱼ − meanⱼ Sᵢⱼ. The u top-ranked ("active") queries attend
// normally, softmax(Sᵢ)·v; every other ("lazy") query outputs mean(v), the
// result of uniform attention. u is clamped to [0, T]. The selection is a
// constant of the graph: no gradient flows through it.
//
// The op is bit-identical to the op chain it replaces,
//
//	MatMul(Softmax(S)⊙active + (1/T)·lazy, v)
//
// with S = Scale(MatMul(q, Transpose(k)), scale), which is what it builds
// on the reference kernel path. The scores are the chain's dot products,
// written by the store form of its kernel where the chain's matmul takes
// the packed dot form (an all-zero score may then be −0 instead of +0,
// which neither the measurement, the selection nor the softmax can tell
// apart), so the query selection is unchanged. Only the active rows pay
// for softmax·v; the lazy rows share one mean row, Σⱼ (1/T)·vⱼ summed in
// ascending j, as the uniform rows of the chain's matmul are. A lazy row whose scores hold a NaN, a +Inf, or only −Inf has
// a NaN softmax, and the chain's softmax·0 + 1/T is then NaN too: such rows
// take the active path and emit NaN. Backward keeps one [BH, T, T]
// attention buffer (the active probabilities, 1/T on lazy rows), runs the
// chain's MatMul backward kernels on the same operands, and skips the
// softmax backward and dAttn of the lazy rows, whose contribution to dQ
// and dK is exactly zero when v and the output gradient are finite.
func ProbSparseAttention(q, k, v *Tensor, scale float64, u int) *Tensor {
	if refKernels.Load() {
		return probSparseChain(q, k, v, scale, u)
	}
	bh, t, dh := q.Shape[0], q.Shape[1], q.Shape[2]
	if len(k.Shape) != 3 || len(v.Shape) != 3 || k.Shape[0] != bh || k.Shape[1] != t || k.Shape[2] != dh ||
		v.Shape[0] != bh || v.Shape[1] != t || v.Shape[2] != dh {
		panic(fmt.Sprintf("nn: ProbSparseAttention shapes q %v, k %v, v %v", q.Shape, k.Shape, v.Shape))
	}
	ar := arenaOf(q)
	// Backward reads every head's attention rows; an inference arena keeps
	// one head's [T, T] scratch instead, reused head after head.
	keep := !noGrad(ar)
	n := t * t
	if keep {
		n *= bh
	}
	// The chain's score product q·kᵀ takes matmulFwd's packed form at
	// training shapes, a dot product per score, which the store-form kernel
	// writes without a zeroed buffer. Other shapes replay the chain's
	// matmulFwd call into a cleared buffer.
	storeScores := matmulFwdPacks(t, dh)
	var kt []float64
	if !storeScores {
		kt = allocFromUninit(ar, dh*t)
	}
	attn := allocFromUninit(ar, n)
	data := allocFromUninit(ar, bh*t*dh)
	vt := allocFromUninit(ar, dh*t)
	mean := allocFromUninit(ar, dh)
	rank := newQueryRanker(t, u)
	rows := make([]rowKind, n/t) // row kinds of every head, or of one
	invT := 1 / float64(t)
	// The chain's [T, T]·[T, Dh] output product takes matmulFwd's packed
	// dot-product form at these shapes: each output row is then an
	// independent dot over its attention row, which the active rows and the
	// shared mean row reproduce one at a time.
	perRow := matmulFwdPacks(t, t)
	for b := 0; b < bh; b++ {
		qb := q.Data[b*t*dh : (b+1)*t*dh]
		kb := k.Data[b*t*dh : (b+1)*t*dh]
		vb := v.Data[b*t*dh : (b+1)*t*dh]
		pb := attn
		if keep {
			pb = attn[b*t*t : (b+1)*t*t]
		}
		// Scores as the chain's MatMul(q, Transpose(k)), then its Scale.
		if storeScores {
			matmulNTStore(pb, qb, kb, t, t, dh)
		} else {
			clear(pb)
			packTranspose(kt, kb, t, dh)
			matmulFwd(pb, qb, kt, t, dh, t)
		}
		for i := range pb {
			pb[i] *= scale
		}
		kinds := rows
		if keep {
			kinds = rows[b*t : (b+1)*t]
		}
		rank.rank(pb, t, kinds)
		for i, kind := range kinds {
			row := pb[i*t : (i+1)*t]
			if kind == rowLazy {
				for j := range row {
					row[j] = invT
				}
			} else {
				softmaxRow(row, row)
			}
		}
		ob := data[b*t*dh : (b+1)*t*dh]
		if !perRow {
			clear(ob)
			matmulFwd(ob, pb, vb, t, t, dh)
			continue
		}
		packTranspose(vt, vb, t, dh)
		meanDone := false
		for i, kind := range kinds {
			orow := ob[i*dh : (i+1)*dh]
			if kind != rowLazy {
				matmulNTStore(orow, pb[i*t:(i+1)*t], vt, 1, dh, t)
				continue
			}
			if !meanDone {
				matmulNTStore(mean, pb[i*t:(i+1)*t], vt, 1, dh, t)
				meanDone = true
			}
			copy(orow, mean)
		}
	}
	if !keep {
		return result([]int{bh, t, dh}, data, nil, q, k, v)
	}
	back := func(o *Tensor) {
		needQK := q.requiresGrad || k.requiresGrad
		var ds, dkt, da []float64
		if needQK {
			ds = allocFromUninit(o.arena, t*t)
			dkt = allocFromUninit(o.arena, dh*t)
			da = allocFromUninit(o.arena, t)
		}
		for b := 0; b < bh; b++ {
			gb := o.Grad[b*t*dh : (b+1)*t*dh]
			pb := attn[b*t*t : (b+1)*t*t]
			qb := q.Data[b*t*dh : (b+1)*t*dh]
			if v.requiresGrad {
				matmulBwdB(v.Grad[b*t*dh:(b+1)*t*dh], pb, gb, t, t, dh) // dV += Attnᵀ·g
			}
			if !needQK {
				continue
			}
			// dS = scale·P⊙(dAttn − dot) on the rows that went through the
			// softmax; the lazy rows' softmax gradient is g·0, so their dS
			// rows are zero and are never computed. vt is the forward's
			// per-head scratch, free again.
			packTranspose(vt, v.Data[b*t*dh:(b+1)*t*dh], t, dh)
			for i, kind := range rows[b*t : (b+1)*t] {
				dsRow := ds[i*t : (i+1)*t]
				if kind == rowLazy {
					clear(dsRow)
					continue
				}
				clear(da)
				matmulBwdAPacked(da, gb[i*dh:(i+1)*dh], vt, 1, t, dh) // dAttn row = gᵢ·vᵀ
				prow := pb[i*t : (i+1)*t]
				var dot float64
				for j := range prow {
					dot += float64(prow[j] * da[j])
				}
				for j := range prow {
					dsRow[j] = prow[j] * (da[j] - dot) * scale
				}
			}
			if q.requiresGrad {
				matmulBwdAPacked(q.Grad[b*t*dh:(b+1)*t*dh], ds, k.Data[b*t*dh:(b+1)*t*dh], t, dh, t) // dQ += dS·k
			}
			if k.requiresGrad {
				// dKᵀ = qᵀ·dS, accumulated into k's gradient transposed, as
				// the chain's Transpose backward does.
				clear(dkt)
				matmulBwdB(dkt, qb, ds, t, dh, t)
				kg := k.Grad[b*t*dh : (b+1)*t*dh]
				for i := 0; i < t; i++ {
					for c := 0; c < dh; c++ {
						kg[i*dh+c] += dkt[c*t+i]
					}
				}
			}
		}
	}
	return result([]int{bh, t, dh}, data, back, q, k, v)
}

// probSparseChain is ProbSparse attention as the original op chain: dense
// scaled scores, a softmax over every row, and constant masks that keep the
// active rows and replace the lazy ones by uniform attention.
func probSparseChain(q, k, v *Tensor, scale float64, u int) *Tensor {
	scores := Scale(MatMul(q, Transpose(k)), scale) // [BH, T, T]
	bh, t := scores.Shape[0], scores.Shape[1]
	selMask := ZerosLike(scores, bh, t, t) // 1 on rows of active queries
	uniform := ZerosLike(scores, bh, t, t) // 1/T on rows of lazy queries
	rank := newQueryRanker(t, u)
	kinds := make([]rowKind, t)
	for b := 0; b < bh; b++ {
		base := b * t * t
		rank.rank(scores.Data[base:base+t*t], t, kinds)
		for qi, kind := range kinds {
			row := base + qi*t
			if kind == rowActive {
				for j := 0; j < t; j++ {
					selMask.Data[row+j] = 1
				}
			} else {
				for j := 0; j < t; j++ {
					uniform.Data[row+j] = 1 / float64(t)
				}
			}
		}
	}
	return MatMul(Add(Mul(Softmax(scores), selMask), uniform), v)
}

// rowKind classifies one query row of ProbSparse attention.
type rowKind uint8

const (
	// rowLazy rows attend uniformly: their output is mean(v).
	rowLazy rowKind = iota
	// rowActive rows are among the top-u queries by sparsity measurement.
	rowActive
	// rowNaN rows are lazy, but their scores softmax to NaN, which uniform
	// attention of the chain (softmax·0 + 1/T) propagates.
	rowNaN
)

// queryRanker is the per-op scratch of ProbSparse's query selection.
type queryRanker struct {
	u       int
	measure []float64 // M(q) per query
	order   []int     // query indices, the top u first after rank
}

func newQueryRanker(t, u int) *queryRanker {
	if u > t {
		u = t
	}
	if u < 0 {
		u = 0
	}
	return &queryRanker{u: u, measure: make([]float64, t), order: make([]int, t)}
}

// rank classifies the t query rows of one batch-head's scaled scores
// s [t, t] into kinds: the u rows with the largest sparsity measurement
// are active, the rest lazy or, when their softmax is NaN, rowNaN.
func (r *queryRanker) rank(s []float64, t int, kinds []rowKind) {
	for qi := 0; qi < t; qi++ {
		row := s[qi*t : (qi+1)*t]
		maxV, sum := row[0], 0.0
		for _, v := range row {
			if v > maxV {
				maxV = v
			}
			sum += v
		}
		r.measure[qi] = maxV - sum/float64(t)
		r.order[qi] = qi
		// The softmax is NaN exactly when a score is NaN (the sum is NaN)
		// or the row maximum is infinite (a +Inf, or every score −Inf):
		// its shifted exponents then hold Inf − Inf.
		kinds[qi] = rowLazy
		if math.IsNaN(sum) || math.IsInf(maxV, 0) {
			kinds[qi] = rowNaN
		}
	}
	// Partial selection of the u largest measurements.
	for i := 0; i < r.u; i++ {
		best := i
		for j := i + 1; j < t; j++ {
			if r.measure[r.order[j]] > r.measure[r.order[best]] {
				best = j
			}
		}
		r.order[i], r.order[best] = r.order[best], r.order[i]
	}
	for _, qi := range r.order[:r.u] {
		kinds[qi] = rowActive
	}
}
