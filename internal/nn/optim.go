package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba 2015) with L2 weight
// decay, the optimizer and regularisation the paper uses for all deep
// models (lr 1e-3, weight decay 1e-4, §3.4).
type Adam struct {
	LR          float64
	Beta1       float64
	Beta2       float64
	Eps         float64
	WeightDecay float64

	step int
	m    map[*Tensor][]float64
	v    map[*Tensor][]float64
}

// NewAdam returns an Adam optimizer with the paper's defaults.
func NewAdam(lr, weightDecay float64) *Adam {
	return &Adam{
		LR:          lr,
		Beta1:       0.9,
		Beta2:       0.999,
		Eps:         1e-8,
		WeightDecay: weightDecay,
		m:           map[*Tensor][]float64{},
		v:           map[*Tensor][]float64{},
	}
}

// Step applies one update to every parameter using its accumulated gradient.
func (a *Adam) Step(params []*Tensor) {
	a.step++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.step))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.step))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			a.m[p] = m
			a.v[p] = make([]float64, len(p.Data))
		}
		v := a.v[p]
		for i := range p.Data {
			g := p.Grad[i] + float64(a.WeightDecay*p.Data[i])
			m[i] = float64(a.Beta1*m[i]) + float64((1-a.Beta1)*g)
			v[i] = float64(a.Beta2*v[i]) + float64((1-a.Beta2)*g*g)
			mHat := m[i] / bc1
			vHat := v[i] / bc2
			p.Data[i] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
		}
	}
}

// ZeroGrad clears the gradients of all parameters.
func ZeroGrad(params []*Tensor) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// ClipGradNorm rescales gradients so their global L2 norm is at most max.
// It returns the norm before clipping.
func ClipGradNorm(params []*Tensor, max float64) float64 {
	var total float64
	for _, p := range params {
		for _, g := range p.Grad {
			total += float64(g * g)
		}
	}
	norm := math.Sqrt(total)
	if norm > max && norm > 0 {
		s := max / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= s
			}
		}
	}
	return norm
}
