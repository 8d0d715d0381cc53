package deepsets

import (
	"fmt"
	"math"

	"setlearn/internal/compress"
	"setlearn/internal/mat"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// Loss selects the objective of a training step and with it the head the
// gradient enters ρ at.
type Loss int

// Training objectives.
const (
	// LossMAE is |y − target| on the output y (after the output
	// activation).
	LossMAE Loss = iota
	// LossMSE is (y − target)² on the output y.
	LossMSE
	// LossBCE is binary cross-entropy with logits: the gradient enters ρ's
	// last layer before its activation, and target is 0 or 1.
	LossBCE
)

// Stepper is the model's training pass: one sample's forward and backward
// pass, written out by hand over scratch allocated once. It replays the
// floating-point operations an autodiff tape would record for the model,
// in the tape's order and with the same mat kernels, so the gradients it
// accumulates — and every weight trained from them — are bit-identical to
// the tape's (TestStepMatchesTape pins this against a tape oracle):
//
//	forward   per element: embedding rows (→ CLSM concat) → each φ layer
//	          as MatVecAdd, then the activation; the pool; ρ likewise.
//	backward  seed the output gradient; ρ layers last to first; the pool;
//	          elements last to first, each φ layers last to first, then
//	          AddTo into the embedding rows.
//
// Every scratch gradient is zeroed and then accumulated with +=, as the
// tape's fresh nodes are. A Stepper reads the model's weights and writes
// only its gradient buffers, so several Steppers over one model may step
// concurrently as long as their buffers are distinct and nothing updates
// the weights meanwhile. A Stepper itself is not safe for concurrent use.
type Stepper struct {
	m   *Model
	emb []*mat.Matrix // embedding-table gradients, one per table
	phi stack
	rho stack
	rhp pass // ρ's forward pass over the current sample

	elems   []element // one per set element, grown to the largest set seen
	pooled  []float64 // pooled φ outputs: ρ's input
	argmax  []int     // max pooling: the element each dimension came from
	gPooled []float64 // gradient at the pooled vector
	gSum    []float64 // mean pooling: gradient at the sum
	gIn     []float64 // gradient at φ's input, reused per element
}

// element is one set element's forward pass through the embeddings and φ.
type element struct {
	subs []uint32  // CLSM sub-element ids
	cat  []float64 // CLSM concatenated sub-embeddings
	in   []float64 // φ's input: the embedding row (LSM) or cat (CLSM)
	phi  pass
}

// layer is one dense layer as a step sees it: the model's weights, read
// only, and the gradient buffers it accumulates into.
type layer struct {
	w   *mat.Matrix
	b   []float64
	gw  *mat.Matrix
	gb  []float64
	act nn.Activation
}

// stack is φ or ρ together with the gradient scratch every backward pass
// through it reuses: gOut[l] at layer l's output, gPre[l] at its
// pre-activation.
type stack struct {
	layers     []layer
	gOut, gPre [][]float64
}

// pass holds one forward pass through a stack. y[l] is layer l's output:
// post[l] after an activation, or pre[l] itself where the layer has none
// (the tape records no node for Identity).
type pass struct {
	pre, post, y [][]float64
}

// NewStepper returns training scratch bound to m. Its steps accumulate
// into grads, one matrix per m.Params() entry and shaped like it; nil
// means the parameters' own Grad.
func (m *Model) NewStepper(grads []*mat.Matrix) *Stepper {
	if grads == nil {
		for _, p := range m.params {
			grads = append(grads, p.Grad)
		}
	}
	if len(grads) != len(m.params) {
		panic(fmt.Sprintf("deepsets: NewStepper got %d gradient buffers for %d parameters", len(grads), len(m.params)))
	}
	for i, p := range m.params {
		if g := grads[i]; g.Rows != p.Value.Rows || g.Cols != p.Value.Cols {
			panic(fmt.Sprintf("deepsets: gradient %d is %dx%d, parameter %s is %dx%d",
				i, g.Rows, g.Cols, p.Name, p.Value.Rows, p.Value.Cols))
		}
	}
	out := m.cfg.PhiOut
	st := &Stepper{
		m:       m,
		emb:     grads[:len(m.embeds)],
		pooled:  make([]float64, out),
		argmax:  make([]int, out),
		gPooled: make([]float64, out),
		gSum:    make([]float64, out),
		gIn:     make([]float64, m.phi.In()),
	}
	rest := grads[len(m.embeds):]
	st.phi, rest = newStack(m.phi, rest)
	st.rho, _ = newStack(m.rho, rest)
	st.rhp = newPass(m.rho)
	return st
}

// newStack binds mlp's layers to the gradient buffers at the head of grads
// (W then b per layer, the order of MLP.Params) and returns the rest.
func newStack(mlp *nn.MLP, grads []*mat.Matrix) (stack, []*mat.Matrix) {
	var s stack
	for _, d := range mlp.Layers {
		s.layers = append(s.layers, layer{
			w: d.W.Value, b: d.B.Vec(), gw: grads[0], gb: grads[1].Data, act: d.Act,
		})
		grads = grads[2:]
		s.gOut = append(s.gOut, make([]float64, d.Out()))
		s.gPre = append(s.gPre, make([]float64, d.Out()))
	}
	return s, grads
}

func newPass(mlp *nn.MLP) pass {
	p := pass{y: make([][]float64, len(mlp.Layers))}
	for _, d := range mlp.Layers {
		p.pre = append(p.pre, make([]float64, d.Out()))
		p.post = append(p.post, make([]float64, d.Out()))
	}
	return p
}

// Step runs one forward and backward pass for set s against target,
// accumulates the gradients into the stepper's buffers and returns the
// loss. It allocates nothing once the stepper has seen a set this large.
// Like the predictor it panics on an empty set or an element id above
// MaxID.
func (st *Stepper) Step(s sets.Set, target float64, loss Loss) float64 {
	if len(s) == 0 {
		panic("deepsets: empty set")
	}
	m := st.m
	for len(st.elems) < len(s) {
		st.elems = append(st.elems, st.newElement())
	}
	for i, id := range s {
		e := &st.elems[i]
		st.embed(e, id)
		st.phi.forward(&e.phi, e.in, false)
	}
	st.pool(len(s))
	logit := loss == LossBCE
	y := st.rho.forward(&st.rhp, st.pooled, logit)[0]
	var l, g float64
	switch loss {
	case LossMAE:
		l, g = nn.MAELoss(y, target)
	case LossMSE:
		l, g = nn.MSELoss(y, target)
	case LossBCE:
		l, g = nn.BCEWithLogits(y, target)
	default:
		panic(fmt.Sprintf("deepsets: unknown loss %d", int(loss)))
	}

	st.rho.gOut[len(st.rho.gOut)-1][0] = g
	clear(st.gPooled)
	st.rho.backward(&st.rhp, st.pooled, st.gPooled, logit)
	if m.cfg.Pool == MeanPool {
		clear(st.gSum)
		mat.Axpy(st.gSum, 1/float64(len(s)), st.gPooled)
	}
	gy := st.phi.gOut[len(st.phi.gOut)-1]
	d := m.cfg.EmbedDim
	for i := len(s) - 1; i >= 0; i-- {
		e := &st.elems[i]
		clear(gy)
		switch m.cfg.Pool {
		case MeanPool:
			mat.AddTo(gy, st.gSum)
		case MaxPool:
			for j, a := range st.argmax {
				if a == i {
					gy[j] += st.gPooled[j]
				}
			}
		default:
			mat.AddTo(gy, st.gPooled)
		}
		clear(st.gIn)
		st.phi.backward(&e.phi, e.in, st.gIn, false)
		if m.cfg.Compressed {
			for j, sub := range e.subs {
				mat.AddTo(st.emb[j].Row(int(sub)), st.gIn[j*d:(j+1)*d])
			}
		} else {
			mat.AddTo(st.emb[0].Row(int(s[i])), st.gIn)
		}
	}
	return l
}

func (st *Stepper) newElement() element {
	cfg := st.m.cfg
	e := element{phi: newPass(st.m.phi)}
	if cfg.Compressed {
		e.subs = make([]uint32, 0, cfg.NS)
		e.cat = make([]float64, cfg.NS*cfg.EmbedDim)
	}
	return e
}

// embed validates id and points e.in at φ's input for it.
func (st *Stepper) embed(e *element, id uint32) {
	m := st.m
	if id > m.cfg.MaxID {
		panic(fmt.Sprintf("deepsets: element id %d exceeds MaxID %d", id, m.cfg.MaxID))
	}
	if !m.cfg.Compressed {
		e.in = m.embeds[0].Row(int(id))
		return
	}
	e.subs = compress.Compress(e.subs[:0], id, m.cfg.SVD, m.cfg.NS)
	for i, sub := range e.subs {
		copy(e.cat[i*m.cfg.EmbedDim:], m.embeds[i].Row(int(sub)))
	}
	e.in = e.cat
}

// pool aggregates the first k elements' φ outputs into st.pooled.
func (st *Stepper) pool(k int) {
	last := len(st.phi.layers) - 1
	if st.m.cfg.Pool == MaxPool {
		// The first element seeds every dimension; a later one takes it
		// only when strictly larger, so ties route to the first argmax.
		copy(st.pooled, st.elems[0].phi.y[last])
		clear(st.argmax)
		for i := 1; i < k; i++ {
			for j, v := range st.elems[i].phi.y[last] {
				if v > st.pooled[j] {
					st.pooled[j] = v
					st.argmax[j] = i
				}
			}
		}
		return
	}
	clear(st.pooled)
	for i := 0; i < k; i++ {
		mat.AddTo(st.pooled, st.elems[i].phi.y[last])
	}
	if st.m.cfg.Pool == MeanPool {
		inv := 1 / float64(k)
		for j, v := range st.pooled {
			// "+ 0" is the tape's affine constant: it maps -0 to +0.
			st.pooled[j] = inv*v + 0
		}
	}
}

// actAt is layer l's activation in this pass: a logit pass leaves the last
// layer linear.
func (s *stack) actAt(l int, logit bool) nn.Activation {
	if logit && l == len(s.layers)-1 {
		return nn.Identity
	}
	return s.layers[l].act
}

// forward runs x through the stack, recording the pass in p, and returns
// the stack's output.
func (s *stack) forward(p *pass, x []float64, logit bool) []float64 {
	for l := range s.layers {
		d := &s.layers[l]
		mat.MatVecAdd(p.pre[l], d.w, x, d.b)
		x = p.pre[l]
		if act := s.actAt(l, logit); act != nn.Identity {
			activate(act, p.post[l], p.pre[l])
			x = p.post[l]
		}
		p.y[l] = x
	}
	return x
}

// backward propagates gOut of the last layer, which the caller seeds, back
// through pass p, last layer to first. Per layer it runs the activation's
// backward, then the affine node's: MatTVecAcc into the input gradient,
// OuterAcc into W's and AddTo into b's. gx, zeroed by the caller, receives
// the gradient at the stack's input x.
func (s *stack) backward(p *pass, x, gx []float64, logit bool) {
	for l := len(s.layers) - 1; l >= 0; l-- {
		d := &s.layers[l]
		g := s.gOut[l]
		if act := s.actAt(l, logit); act != nn.Identity {
			gz := s.gPre[l]
			activateBack(act, gz, g, p.pre[l], p.post[l])
			g = gz
		}
		in, gin := x, gx
		if l > 0 {
			in, gin = p.y[l-1], s.gOut[l-1]
			clear(gin)
		}
		mat.MatTVecAcc(gin, d.w, g)
		mat.OuterAcc(d.gw, g, in)
		mat.AddTo(d.gb, g)
	}
}

// activate writes act(pre) into post as the tape's activation nodes do:
// ReLU maps everything not above zero (NaN included) to +0.
func activate(act nn.Activation, post, pre []float64) {
	switch act {
	case nn.Sigmoid:
		for i, v := range pre {
			post[i] = nn.StableSigmoid(v)
		}
	case nn.Tanh:
		for i, v := range pre {
			post[i] = math.Tanh(v)
		}
	case nn.ReLU:
		mat.ReLU(post, pre)
	default:
		panic(fmt.Sprintf("deepsets: unknown activation %v", act))
	}
}

// activateBack writes the gradient at an activation's input into gz with
// the tape's expressions: the tape's gradient node starts at zero and
// accumulates into it.
func activateBack(act nn.Activation, gz, g, pre, post []float64) {
	if act == nn.ReLU {
		mat.ReLUBack(gz, g, pre)
		return
	}
	clear(gz)
	switch act {
	case nn.Sigmoid:
		for i, gi := range g {
			y := post[i]
			gz[i] += gi * y * (1 - y)
		}
	case nn.Tanh:
		for i, gi := range g {
			y := post[i]
			gz[i] += gi * (1 - y*y)
		}
	default:
		panic(fmt.Sprintf("deepsets: unknown activation %v", act))
	}
}
