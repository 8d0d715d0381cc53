package nn

import (
	"math"

	"setlearn/internal/mat"
)

// Adam implements the Adam optimizer (Kingma & Ba) — the default used by
// Keras and therefore by the paper's training setup.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard β₁=0.9, β₂=0.999,
// ε=1e-8 defaults.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8,
		m: make(map[*Param][]float64),
		v: make(map[*Param][]float64),
	}
}

// Step applies one update and clears the gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	bc1 := 1 - math.Pow(o.Beta1, float64(o.t))
	bc2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m, v := o.m[p], o.v[p]
		if m == nil {
			m = make([]float64, p.Size())
			v = make([]float64, p.Size())
			o.m[p], o.v[p] = m, v
		}
		mat.AdamUpdate(p.Value.Data, p.Grad.Data, m, v, o.Beta1, o.Beta2, o.LR, o.Epsilon, bc1, bc2)
		p.ZeroGrad()
	}
}
