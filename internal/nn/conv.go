package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Conv1D is a 1-D convolution over the time axis of [B, T, C] tensors with
// same-padding, used by Informer's distilling layers between encoder blocks.
type Conv1D struct {
	Kernel int
	In     int
	Out    int
	W      *Tensor // [kernel, in, out]
	B      *Tensor // [out]
}

// NewConv1D returns a convolution with Xavier initialisation.
func NewConv1D(rng *rand.Rand, kernel, in, out int) *Conv1D {
	scale := math.Sqrt(2.0 / float64(kernel*in+out))
	return &Conv1D{
		Kernel: kernel,
		In:     in,
		Out:    out,
		W:      Randn(rng, scale, kernel, in, out).Param(),
		B:      Zeros(out).Param(),
	}
}

// Params returns the trainable parameters.
func (c *Conv1D) Params() []*Tensor { return []*Tensor{c.W, c.B} }

// Forward applies the convolution to x of shape [B, T, in], producing
// [B, T, out] (zero same-padding).
func (c *Conv1D) Forward(x *Tensor) *Tensor {
	if len(x.Shape) != 3 || x.Shape[2] != c.In {
		panic(fmt.Sprintf("nn: Conv1D input %v, want [B, T, %d]", x.Shape, c.In))
	}
	b, t := x.Shape[0], x.Shape[1]
	front := (c.Kernel - 1) / 2
	w, bias := c.W, c.B
	data := allocFromUninit(arenaOf(x), b*t*c.Out)
	for bi := 0; bi < b; bi++ {
		for ti := 0; ti < t; ti++ {
			out := data[(bi*t+ti)*c.Out : (bi*t+ti+1)*c.Out]
			copy(out, bias.Data)
			for k := 0; k < c.Kernel; k++ {
				src := ti + k - front
				if src < 0 || src >= t {
					continue
				}
				in := x.Data[(bi*t+src)*c.In : (bi*t+src+1)*c.In]
				for ci, xv := range in {
					if xv == 0 {
						continue
					}
					wRow := w.Data[(k*c.In+ci)*c.Out : (k*c.In+ci+1)*c.Out]
					for co := range out {
						out[co] += xv * wRow[co]
					}
				}
			}
		}
	}
	return result([]int{b, t, c.Out}, data, func(o *Tensor) {
		for bi := 0; bi < b; bi++ {
			for ti := 0; ti < t; ti++ {
				g := o.Grad[(bi*t+ti)*c.Out : (bi*t+ti+1)*c.Out]
				if bias.requiresGrad {
					for co := range g {
						bias.Grad[co] += g[co]
					}
				}
				for k := 0; k < c.Kernel; k++ {
					src := ti + k - front
					if src < 0 || src >= t {
						continue
					}
					in := x.Data[(bi*t+src)*c.In : (bi*t+src+1)*c.In]
					for ci := 0; ci < c.In; ci++ {
						wRow := w.Data[(k*c.In+ci)*c.Out : (k*c.In+ci+1)*c.Out]
						if w.requiresGrad {
							wgRow := w.Grad[(k*c.In+ci)*c.Out : (k*c.In+ci+1)*c.Out]
							for co := range g {
								wgRow[co] += in[ci] * g[co]
							}
						}
						if x.requiresGrad {
							var s float64
							for co := range g {
								s += wRow[co] * g[co]
							}
							x.Grad[(bi*t+src)*c.In+ci] += s
						}
					}
				}
			}
		}
	}, x, w, bias)
}

// MaxPool1D downsamples the time axis of [B, T, C] with the given kernel
// and stride (same-style padding on the right). Informer uses kernel 3,
// stride 2 for distilling.
func MaxPool1D(x *Tensor, kernel, stride int) *Tensor {
	if len(x.Shape) != 3 {
		panic("nn: MaxPool1D needs [B, T, C]")
	}
	if kernel < 1 || stride < 1 {
		panic("nn: MaxPool1D kernel and stride must be >= 1")
	}
	b, t, c := x.Shape[0], x.Shape[1], x.Shape[2]
	ot := (t + stride - 1) / stride
	ar := arenaOf(x)
	data := allocFromUninit(ar, b*ot*c)
	// The argmax map routes gradients in backward; an inference arena
	// skips it.
	var argmax []int
	if !noGrad(ar) {
		argmax = make([]int, b*ot*c)
	}
	for bi := 0; bi < b; bi++ {
		for oi := 0; oi < ot; oi++ {
			start := oi * stride
			for ci := 0; ci < c; ci++ {
				best := math.Inf(-1)
				bestIdx := -1
				for k := 0; k < kernel; k++ {
					ti := start + k
					if ti >= t {
						break
					}
					v := x.Data[(bi*t+ti)*c+ci]
					if v > best {
						best, bestIdx = v, (bi*t+ti)*c+ci
					}
				}
				data[(bi*ot+oi)*c+ci] = best
				if argmax != nil {
					argmax[(bi*ot+oi)*c+ci] = bestIdx
				}
			}
		}
	}
	return result([]int{b, ot, c}, data, func(o *Tensor) {
		if !x.requiresGrad {
			return
		}
		for i, g := range o.Grad {
			if argmax[i] >= 0 {
				x.Grad[argmax[i]] += g
			}
		}
	}, x)
}

// ELU applies the exponential linear unit used by Informer's distilling
// convolutions.
func ELU(a *Tensor) *Tensor {
	data := allocFromUninit(arenaOf(a), len(a.Data))
	for i, v := range a.Data {
		if v > 0 {
			data[i] = v
		} else {
			data[i] = math.Exp(v) - 1
		}
	}
	return result(a.Shape, data, func(out *Tensor) {
		if !a.requiresGrad {
			return
		}
		for i, g := range out.Grad {
			if a.Data[i] > 0 {
				a.Grad[i] += g
			} else {
				a.Grad[i] += g * (out.Data[i] + 1)
			}
		}
	}, a)
}
