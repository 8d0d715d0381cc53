// Package ad implements a small tape-based reverse-mode automatic
// differentiation engine over vector-valued nodes. It is the training
// substrate for the DeepSets, LSTM, and GRU models in this repository.
//
// A Tape records operations in execution order; Backward replays them in
// reverse. Parameters (weight matrices, bias vectors, embedding tables) live
// outside the tape: operations that consume them accumulate directly into
// caller-owned gradient buffers, so one pair of parameter/gradient arrays
// serves any number of tape applications (weight sharing, as required by the
// per-element φ network of DeepSets, falls out naturally).
package ad

import (
	"fmt"
	"math"

	"setlearn/internal/mat"
)

// Node is a vector-valued value recorded on a tape together with its
// gradient buffer.
type Node struct {
	Value []float64
	Grad  []float64
	back  func()
}

// Len returns the dimensionality of the node.
func (n *Node) Len() int { return len(n.Value) }

// Tape records operations for reverse-mode differentiation.
type Tape struct {
	nodes []*Node
}

// NewTape returns an empty tape.
func NewTape() *Tape { return &Tape{} }

// Reset drops all recorded nodes so the tape can be reused.
func (t *Tape) Reset() { t.nodes = t.nodes[:0] }

func (t *Tape) newNode(n int) *Node {
	nd := &Node{Value: make([]float64, n), Grad: make([]float64, n)}
	t.nodes = append(t.nodes, nd)
	return nd
}

// Input records a leaf node holding a copy of v. Its gradient is computed
// but not propagated anywhere.
func (t *Tape) Input(v []float64) *Node {
	nd := t.newNode(len(v))
	copy(nd.Value, v)
	return nd
}

// Param records a leaf node over a trainable vector: the node's value is a
// copy of value, and Backward accumulates into grad (nil to freeze).
func (t *Tape) Param(value, grad []float64) *Node {
	nd := t.newNode(len(value))
	copy(nd.Value, value)
	nd.back = func() {
		if grad != nil {
			mat.AddTo(grad, nd.Grad)
		}
	}
	return nd
}

// Affine records y = W·x + b. gW and gb receive the parameter gradients
// during Backward; either may be nil to skip accumulation (frozen weights).
func (t *Tape) Affine(W *mat.Matrix, gW *mat.Matrix, b, gb []float64, x *Node) *Node {
	if W.Cols != x.Len() {
		panic(fmt.Sprintf("ad: Affine W is %dx%d but x has length %d", W.Rows, W.Cols, x.Len()))
	}
	out := t.newNode(W.Rows)
	mat.MatVecAdd(out.Value, W, x.Value, b)
	out.back = func() {
		mat.MatTVecAcc(x.Grad, W, out.Grad)
		if gW != nil {
			mat.OuterAcc(gW, out.Grad, x.Value)
		}
		if gb != nil {
			mat.AddTo(gb, out.Grad)
		}
	}
	return out
}

// Lookup records y = row idx of the embedding table E. gE receives the
// gradient for that row during Backward.
func (t *Tape) Lookup(E *mat.Matrix, gE *mat.Matrix, idx int) *Node {
	if idx < 0 || idx >= E.Rows {
		panic(fmt.Sprintf("ad: Lookup index %d out of range [0,%d)", idx, E.Rows))
	}
	out := t.newNode(E.Cols)
	copy(out.Value, E.Row(idx))
	out.back = func() {
		if gE != nil {
			mat.AddTo(gE.Row(idx), out.Grad)
		}
	}
	return out
}

// Add records y = a + b (elementwise).
func (t *Tape) Add(a, b *Node) *Node {
	checkSameLen("Add", a, b)
	out := t.newNode(a.Len())
	for i := range out.Value {
		out.Value[i] = a.Value[i] + b.Value[i]
	}
	out.back = func() {
		mat.AddTo(a.Grad, out.Grad)
		mat.AddTo(b.Grad, out.Grad)
	}
	return out
}

// Mul records y = a ⊙ b (elementwise product).
func (t *Tape) Mul(a, b *Node) *Node {
	checkSameLen("Mul", a, b)
	out := t.newNode(a.Len())
	for i := range out.Value {
		out.Value[i] = a.Value[i] * b.Value[i]
	}
	out.back = func() {
		for i, g := range out.Grad {
			a.Grad[i] += g * b.Value[i]
			b.Grad[i] += g * a.Value[i]
		}
	}
	return out
}

// AffineConst records y = alpha*a + beta (elementwise, constants).
func (t *Tape) AffineConst(a *Node, alpha, beta float64) *Node {
	out := t.newNode(a.Len())
	for i := range out.Value {
		out.Value[i] = alpha*a.Value[i] + beta
	}
	out.back = func() { mat.Axpy(a.Grad, alpha, out.Grad) }
	return out
}

// Concat records y = [a₁ ‖ a₂ ‖ …].
func (t *Tape) Concat(parts ...*Node) *Node {
	total := 0
	for _, p := range parts {
		total += p.Len()
	}
	out := t.newNode(total)
	off := 0
	for _, p := range parts {
		copy(out.Value[off:], p.Value)
		off += p.Len()
	}
	out.back = func() {
		off := 0
		for _, p := range parts {
			mat.AddTo(p.Grad, out.Grad[off:off+p.Len()])
			off += p.Len()
		}
	}
	return out
}

// SumPool records y = Σᵢ aᵢ over equally sized nodes — the permutation
// invariant pooling at the heart of DeepSets.
func (t *Tape) SumPool(parts []*Node) *Node {
	if len(parts) == 0 {
		panic("ad: SumPool over empty slice")
	}
	n := parts[0].Len()
	out := t.newNode(n)
	for _, p := range parts {
		if p.Len() != n {
			panic("ad: SumPool over nodes of different lengths")
		}
		mat.AddTo(out.Value, p.Value)
	}
	out.back = func() {
		for _, p := range parts {
			mat.AddTo(p.Grad, out.Grad)
		}
	}
	return out
}

// MaxPool records y = elementwise max over equally sized nodes; gradients
// flow to the maximizing element per dimension (first on ties).
func (t *Tape) MaxPool(parts []*Node) *Node {
	if len(parts) == 0 {
		panic("ad: MaxPool over empty slice")
	}
	n := parts[0].Len()
	out := t.newNode(n)
	argmax := make([]int, n)
	copy(out.Value, parts[0].Value)
	for pi, p := range parts {
		if p.Len() != n {
			panic("ad: MaxPool over nodes of different lengths")
		}
		if pi == 0 {
			continue
		}
		for i, v := range p.Value {
			if v > out.Value[i] {
				out.Value[i] = v
				argmax[i] = pi
			}
		}
	}
	out.back = func() {
		for i, g := range out.Grad {
			parts[argmax[i]].Grad[i] += g
		}
	}
	return out
}

// MeanPool records y = (1/k) Σᵢ aᵢ.
func (t *Tape) MeanPool(parts []*Node) *Node {
	s := t.SumPool(parts)
	return t.AffineConst(s, 1/float64(len(parts)), 0)
}

// Sigmoid records y = 1/(1+e^{-a}) elementwise.
func (t *Tape) Sigmoid(a *Node) *Node {
	out := t.newNode(a.Len())
	for i, v := range a.Value {
		out.Value[i] = sigmoid(v)
	}
	out.back = func() {
		for i, g := range out.Grad {
			y := out.Value[i]
			a.Grad[i] += g * y * (1 - y)
		}
	}
	return out
}

// Tanh records y = tanh(a) elementwise.
func (t *Tape) Tanh(a *Node) *Node {
	out := t.newNode(a.Len())
	for i, v := range a.Value {
		out.Value[i] = math.Tanh(v)
	}
	out.back = func() {
		for i, g := range out.Grad {
			y := out.Value[i]
			a.Grad[i] += g * (1 - y*y)
		}
	}
	return out
}

// ReLU records y = max(a, 0) elementwise.
func (t *Tape) ReLU(a *Node) *Node {
	out := t.newNode(a.Len())
	for i, v := range a.Value {
		if v > 0 {
			out.Value[i] = v
		}
	}
	out.back = func() {
		for i, g := range out.Grad {
			if a.Value[i] > 0 {
				a.Grad[i] += g
			}
		}
	}
	return out
}

// Backward seeds the gradient of out and propagates through every recorded
// operation in reverse order. seed must match out's length; pass nil to seed
// with all ones.
func (t *Tape) Backward(out *Node, seed []float64) {
	if seed == nil {
		for i := range out.Grad {
			out.Grad[i] = 1
		}
	} else {
		if len(seed) != out.Len() {
			panic("ad: Backward seed length mismatch")
		}
		copy(out.Grad, seed)
	}
	for i := len(t.nodes) - 1; i >= 0; i-- {
		if t.nodes[i].back != nil {
			t.nodes[i].back()
		}
	}
}

func checkSameLen(op string, a, b *Node) {
	if a.Len() != b.Len() {
		panic(fmt.Sprintf("ad: %s over nodes of lengths %d and %d", op, a.Len(), b.Len()))
	}
}

func sigmoid(x float64) float64 {
	// Numerically stable in both tails.
	if x >= 0 {
		z := math.Exp(-x)
		return 1 / (1 + z)
	}
	z := math.Exp(x)
	return z / (1 + z)
}
