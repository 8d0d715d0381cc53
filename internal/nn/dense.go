package nn

import (
	"fmt"
	"math/rand"

	"setlearn/internal/ad"
	"setlearn/internal/mat"
)

// Dense is a fully connected layer y = act(W·x + b).
type Dense struct {
	W   *Param
	B   *Param
	Act Activation
}

// NewDense returns a Glorot-initialized dense layer.
func NewDense(name string, in, out int, act Activation, rng *rand.Rand) *Dense {
	d := &Dense{
		W:   NewParam(name+".W", out, in),
		B:   NewParam(name+".b", 1, out),
		Act: act,
	}
	d.W.GlorotInit(rng, in, out)
	return d
}

// In returns the input dimensionality.
func (d *Dense) In() int { return d.W.Value.Cols }

// Out returns the output dimensionality.
func (d *Dense) Out() int { return d.W.Value.Rows }

// Apply records the layer on the tape.
func (d *Dense) Apply(t *ad.Tape, x *ad.Node) *ad.Node {
	y := t.Affine(d.W.Value, d.W.Grad, d.B.Vec(), d.B.GradVec(), x)
	return d.Act.Apply(t, y)
}

// ApplyLinear records W·x + b without the activation (used to expose the
// pre-sigmoid logit for numerically stable cross-entropy).
func (d *Dense) ApplyLinear(t *ad.Tape, x *ad.Node) *ad.Node {
	return t.Affine(d.W.Value, d.W.Grad, d.B.Vec(), d.B.GradVec(), x)
}

// Infer computes the layer output into dst without touching a tape.
func (d *Dense) Infer(dst, x []float64) {
	mat.MatVecAdd(dst, d.W.Value, x, d.B.Vec())
	d.Act.ApplyVec(dst)
}

// Params returns the layer's trainable parameters.
func (d *Dense) Params() []*Param { return []*Param{d.W, d.B} }

// MLP is a stack of dense layers.
type MLP struct {
	Layers []*Dense
}

// NewMLP builds an MLP with the given layer sizes. sizes[0] is the input
// dimension; each hidden layer uses hiddenAct and the final layer outAct.
func NewMLP(name string, sizes []int, hiddenAct, outAct Activation, rng *rand.Rand) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least input and output sizes, got %v", sizes))
	}
	m := &MLP{}
	for i := 0; i+1 < len(sizes); i++ {
		act := hiddenAct
		if i+2 == len(sizes) {
			act = outAct
		}
		m.Layers = append(m.Layers, NewDense(fmt.Sprintf("%s.%d", name, i), sizes[i], sizes[i+1], act, rng))
	}
	return m
}

// In returns the input dimensionality.
func (m *MLP) In() int { return m.Layers[0].In() }

// Out returns the output dimensionality.
func (m *MLP) Out() int { return m.Layers[len(m.Layers)-1].Out() }

// Apply records the full stack on the tape.
func (m *MLP) Apply(t *ad.Tape, x *ad.Node) *ad.Node {
	for _, l := range m.Layers {
		x = l.Apply(t, x)
	}
	return x
}

// ApplyLogit records all layers but leaves the final layer linear.
func (m *MLP) ApplyLogit(t *ad.Tape, x *ad.Node) *ad.Node {
	last := len(m.Layers) - 1
	for _, l := range m.Layers[:last] {
		x = l.Apply(t, x)
	}
	return m.Layers[last].ApplyLinear(t, x)
}

// Params returns all trainable parameters of the stack.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// InferScratch holds preallocated buffers for tape-free MLP inference.
type InferScratch struct {
	bufs [][]float64
}

// NewInferScratch sizes scratch buffers for m.
func (m *MLP) NewInferScratch() *InferScratch {
	s := &InferScratch{}
	for _, l := range m.Layers {
		s.bufs = append(s.bufs, make([]float64, l.Out()))
	}
	return s
}

// Infer runs the stack without a tape and returns the output buffer, which
// is owned by the scratch and overwritten on the next call.
func (m *MLP) Infer(s *InferScratch, x []float64) []float64 {
	for i, l := range m.Layers {
		l.Infer(s.bufs[i], x)
		x = s.bufs[i]
	}
	return x
}

// InferLogit runs the stack without a tape, skipping the final activation.
func (m *MLP) InferLogit(s *InferScratch, x []float64) []float64 {
	last := len(m.Layers) - 1
	for i, l := range m.Layers[:last] {
		l.Infer(s.bufs[i], x)
		x = s.bufs[i]
	}
	l := m.Layers[last]
	mat.MatVecAdd(s.bufs[last], l.W.Value, x, l.B.Vec())
	return s.bufs[last]
}
