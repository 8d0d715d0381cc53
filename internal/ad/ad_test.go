package ad

import (
	"math"
	"math/rand"
	"testing"

	"setlearn/internal/mat"
)

func TestInputCopies(t *testing.T) {
	tp := NewTape()
	v := []float64{1, 2}
	n := tp.Input(v)
	v[0] = 99
	if n.Value[0] != 1 {
		t.Fatal("Input must copy its argument")
	}
}

func TestAddMulForward(t *testing.T) {
	tp := NewTape()
	a := tp.Input([]float64{1, 2})
	b := tp.Input([]float64{3, 5})
	add := tp.Add(a, b)
	mul := tp.Mul(a, b)
	if add.Value[0] != 4 || add.Value[1] != 7 {
		t.Fatalf("Add got %v", add.Value)
	}
	if mul.Value[0] != 3 || mul.Value[1] != 10 {
		t.Fatalf("Mul got %v", mul.Value)
	}
}

func TestConcatForwardBackward(t *testing.T) {
	tp := NewTape()
	a := tp.Input([]float64{1})
	b := tp.Input([]float64{2, 3})
	c := tp.Concat(a, b)
	if len(c.Value) != 3 || c.Value[2] != 3 {
		t.Fatalf("Concat got %v", c.Value)
	}
	tp.Backward(c, []float64{10, 20, 30})
	if a.Grad[0] != 10 || b.Grad[0] != 20 || b.Grad[1] != 30 {
		t.Fatalf("Concat grads a=%v b=%v", a.Grad, b.Grad)
	}
}

func TestSumPoolPermutationInvariant(t *testing.T) {
	tp := NewTape()
	a := tp.Input([]float64{1, 2})
	b := tp.Input([]float64{3, 4})
	c := tp.Input([]float64{5, 6})
	s1 := tp.SumPool([]*Node{a, b, c})
	s2 := tp.SumPool([]*Node{c, a, b})
	for i := range s1.Value {
		if s1.Value[i] != s2.Value[i] {
			t.Fatal("SumPool must be order independent")
		}
	}
	if s1.Value[0] != 9 || s1.Value[1] != 12 {
		t.Fatalf("SumPool got %v", s1.Value)
	}
}

func TestMeanPool(t *testing.T) {
	tp := NewTape()
	a := tp.Input([]float64{1, 2})
	b := tp.Input([]float64{3, 6})
	m := tp.MeanPool([]*Node{a, b})
	if m.Value[0] != 2 || m.Value[1] != 4 {
		t.Fatalf("MeanPool got %v", m.Value)
	}
}

func TestActivationsForward(t *testing.T) {
	tp := NewTape()
	x := tp.Input([]float64{0, -1, 2})
	s := tp.Sigmoid(x)
	if math.Abs(s.Value[0]-0.5) > 1e-12 {
		t.Fatalf("Sigmoid(0)=%v", s.Value[0])
	}
	th := tp.Tanh(x)
	if math.Abs(th.Value[2]-math.Tanh(2)) > 1e-12 {
		t.Fatal("Tanh wrong")
	}
	r := tp.ReLU(x)
	if r.Value[0] != 0 || r.Value[1] != 0 || r.Value[2] != 2 {
		t.Fatalf("ReLU got %v", r.Value)
	}
}

func TestSigmoidStableInTails(t *testing.T) {
	tp := NewTape()
	x := tp.Input([]float64{-1000, 1000})
	s := tp.Sigmoid(x)
	if s.Value[0] != 0 || s.Value[1] != 1 {
		t.Fatalf("extreme sigmoid got %v", s.Value)
	}
	if math.IsNaN(s.Value[0]) || math.IsNaN(s.Value[1]) {
		t.Fatal("sigmoid produced NaN")
	}
}

func TestLookupBackward(t *testing.T) {
	E := mat.FromSlice(3, 2, []float64{1, 2, 3, 4, 5, 6})
	gE := mat.New(3, 2)
	tp := NewTape()
	n := tp.Lookup(E, gE, 1)
	if n.Value[0] != 3 || n.Value[1] != 4 {
		t.Fatalf("Lookup got %v", n.Value)
	}
	tp.Backward(n, []float64{10, 20})
	if gE.At(1, 0) != 10 || gE.At(1, 1) != 20 || gE.At(0, 0) != 0 {
		t.Fatalf("Lookup grad %v", gE.Data)
	}
}

func TestTapeReset(t *testing.T) {
	tp := NewTape()
	tp.Input([]float64{1})
	if len(tp.nodes) != 1 {
		t.Fatal("node not recorded")
	}
	tp.Reset()
	if len(tp.nodes) != 0 {
		t.Fatal("Reset did not clear nodes")
	}
}

// Full end-to-end gradient check of a two-layer network with every op:
// y = sigmoid(W2 · tanh(W1·x + b1) + b2), scalar output.
func TestGradientCheckMLP(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	in, hid := 4, 5
	W1 := mat.New(hid, in)
	b1 := make([]float64, hid)
	W2 := mat.New(1, hid)
	b2 := make([]float64, 1)
	x := make([]float64, in)
	for i := range W1.Data {
		W1.Data[i] = rng.NormFloat64()
	}
	for i := range W2.Data {
		W2.Data[i] = rng.NormFloat64()
	}
	for i := range x {
		x[i] = rng.NormFloat64()
	}

	forward := func() float64 {
		tp := NewTape()
		xn := tp.Input(x)
		h := tp.Tanh(tp.Affine(W1, nil, b1, nil, xn))
		y := tp.Sigmoid(tp.Affine(W2, nil, b2, nil, h))
		return y.Value[0]
	}

	// Analytic gradients.
	gW1 := mat.New(hid, in)
	gb1 := make([]float64, hid)
	gW2 := mat.New(1, hid)
	gb2 := make([]float64, 1)
	tp := NewTape()
	xn := tp.Input(x)
	h := tp.Tanh(tp.Affine(W1, gW1, b1, gb1, xn))
	y := tp.Sigmoid(tp.Affine(W2, gW2, b2, gb2, h))
	tp.Backward(y, nil)

	const eps = 1e-6
	check := func(name string, param []float64, grad []float64) {
		for i := range param {
			old := param[i]
			param[i] = old + eps
			up := forward()
			param[i] = old - eps
			dn := forward()
			param[i] = old
			fd := (up - dn) / (2 * eps)
			if math.Abs(fd-grad[i]) > 1e-5*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: analytic %g vs finite-diff %g", name, i, grad[i], fd)
			}
		}
	}
	check("W1", W1.Data, gW1.Data)
	check("b1", b1, gb1)
	check("W2", W2.Data, gW2.Data)
	check("b2", b2, gb2)
	check("x", x, xn.Grad)
}

// Gradient check of a DeepSets-shaped computation with shared weights,
// embedding lookups, concat, mul, and sum pooling — the exact op mix used by
// the compressed model.
func TestGradientCheckDeepSetsShape(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	embDim, hid := 3, 4
	Eq := mat.New(5, embDim)
	Er := mat.New(5, embDim)
	Wphi := mat.New(hid, 2*embDim)
	bphi := make([]float64, hid)
	Wrho := mat.New(1, hid)
	brho := make([]float64, 1)
	for _, d := range [][]float64{Eq.Data, Er.Data, Wphi.Data, Wrho.Data} {
		for i := range d {
			d[i] = rng.NormFloat64() * 0.5
		}
	}
	elems := [][2]int{{0, 3}, {2, 1}, {4, 4}}

	build := func(gEq, gEr, gWphi *mat.Matrix, gbphi []float64, gWrho *mat.Matrix, gbrho []float64) (*Tape, *Node) {
		tp := NewTape()
		parts := make([]*Node, len(elems))
		for i, e := range elems {
			q := tp.Lookup(Eq, gEq, e[0])
			r := tp.Lookup(Er, gEr, e[1])
			cat := tp.Concat(q, r)
			parts[i] = tp.ReLU(tp.Affine(Wphi, gWphi, bphi, gbphi, cat))
		}
		pooled := tp.SumPool(parts)
		y := tp.Sigmoid(tp.Affine(Wrho, gWrho, brho, gbrho, pooled))
		return tp, y
	}

	forward := func() float64 {
		_, y := build(nil, nil, nil, nil, nil, nil)
		return y.Value[0]
	}

	gEq, gEr := mat.New(5, embDim), mat.New(5, embDim)
	gWphi := mat.New(hid, 2*embDim)
	gbphi := make([]float64, hid)
	gWrho := mat.New(1, hid)
	gbrho := make([]float64, 1)
	tp, y := build(gEq, gEr, gWphi, gbphi, gWrho, gbrho)
	tp.Backward(y, nil)

	const eps = 1e-6
	check := func(name string, param, grad []float64) {
		for i := range param {
			old := param[i]
			param[i] = old + eps
			up := forward()
			param[i] = old - eps
			dn := forward()
			param[i] = old
			fd := (up - dn) / (2 * eps)
			// ReLU kinks can perturb finite differences; tolerate small slack.
			if math.Abs(fd-grad[i]) > 1e-4*(1+math.Abs(fd)) {
				t.Fatalf("%s[%d]: analytic %g vs finite-diff %g", name, i, grad[i], fd)
			}
		}
	}
	check("Eq", Eq.Data, gEq.Data)
	check("Er", Er.Data, gEr.Data)
	check("Wphi", Wphi.Data, gWphi.Data)
	check("bphi", bphi, gbphi)
	check("Wrho", Wrho.Data, gWrho.Data)
	check("brho", brho, gbrho)
}

func TestAffineConstGradient(t *testing.T) {
	tp := NewTape()
	x := tp.Input([]float64{2, -3})
	y := tp.AffineConst(x, 0.5, 1)
	if y.Value[0] != 2 || y.Value[1] != -0.5 {
		t.Fatalf("AffineConst got %v", y.Value)
	}
	tp.Backward(y, []float64{1, 1})
	if x.Grad[0] != 0.5 || x.Grad[1] != 0.5 {
		t.Fatalf("AffineConst grad %v", x.Grad)
	}
}

func TestWeightSharingAccumulates(t *testing.T) {
	// Applying the same Affine twice must add both contributions into gW.
	W := mat.FromSlice(1, 1, []float64{2})
	gW := mat.New(1, 1)
	b := []float64{0}
	tp := NewTape()
	x1 := tp.Input([]float64{3})
	x2 := tp.Input([]float64{5})
	y := tp.Add(tp.Affine(W, gW, b, nil, x1), tp.Affine(W, gW, b, nil, x2))
	tp.Backward(y, []float64{1})
	if gW.At(0, 0) != 8 { // dy/dW = x1 + x2
		t.Fatalf("shared weight grad %v want 8", gW.At(0, 0))
	}
}

func TestBackwardNilSeedIsOnes(t *testing.T) {
	tp := NewTape()
	x := tp.Input([]float64{1, 2})
	y := tp.AffineConst(x, 3, 0)
	tp.Backward(y, nil)
	if x.Grad[0] != 3 || x.Grad[1] != 3 {
		t.Fatalf("nil seed grads %v", x.Grad)
	}
}

func TestMaxPool(t *testing.T) {
	tp := NewTape()
	a := tp.Input([]float64{1, 5})
	b := tp.Input([]float64{3, 2})
	m := tp.MaxPool([]*Node{a, b})
	if m.Value[0] != 3 || m.Value[1] != 5 {
		t.Fatalf("MaxPool got %v", m.Value)
	}
	tp.Backward(m, []float64{1, 1})
	if b.Grad[0] != 1 || a.Grad[1] != 1 || a.Grad[0] != 0 || b.Grad[1] != 0 {
		t.Fatalf("MaxPool grads a=%v b=%v", a.Grad, b.Grad)
	}
}

func TestMaxPoolPermutationInvariant(t *testing.T) {
	tp := NewTape()
	a := tp.Input([]float64{1, 9})
	b := tp.Input([]float64{7, 2})
	c := tp.Input([]float64{4, 4})
	m1 := tp.MaxPool([]*Node{a, b, c})
	m2 := tp.MaxPool([]*Node{c, b, a})
	for i := range m1.Value {
		if m1.Value[i] != m2.Value[i] {
			t.Fatal("MaxPool must be order independent")
		}
	}
}
