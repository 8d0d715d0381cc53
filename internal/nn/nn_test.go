package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"setlearn/internal/ad"
)

func TestDenseShapesAndInfer(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("d", 3, 2, Identity, rng)
	if d.In() != 3 || d.Out() != 2 {
		t.Fatalf("dims in=%d out=%d", d.In(), d.Out())
	}
	x := []float64{1, 2, 3}
	tp := ad.NewTape()
	taped := d.Apply(tp, tp.Input(x))
	fast := make([]float64, 2)
	d.Infer(fast, x)
	for i := range fast {
		if math.Abs(fast[i]-taped.Value[i]) > 1e-12 {
			t.Fatalf("Infer disagrees with taped forward: %v vs %v", fast, taped.Value)
		}
	}
}

func TestMLPInferMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := NewMLP("m", []int{4, 8, 8, 1}, ReLU, Sigmoid, rng)
	if m.In() != 4 || m.Out() != 1 {
		t.Fatalf("MLP dims in=%d out=%d", m.In(), m.Out())
	}
	s := m.NewInferScratch()
	for trial := 0; trial < 10; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		tp := ad.NewTape()
		want := m.Apply(tp, tp.Input(x)).Value[0]
		got := m.Infer(s, x)[0]
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("trial %d: Infer %v vs tape %v", trial, got, want)
		}
	}
}

func TestMLPLogitMatchesSigmoidOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := NewMLP("m", []int{2, 4, 1}, Tanh, Sigmoid, rng)
	s := m.NewInferScratch()
	x := []float64{0.3, -0.7}
	logit := m.InferLogit(s, x)[0]
	// InferScratch is reused, so recompute the sigmoid path afterwards.
	p := StableSigmoid(logit)
	out := m.Infer(s, x)[0]
	if math.Abs(p-out) > 1e-12 {
		t.Fatalf("sigmoid(logit)=%v but Infer=%v", p, out)
	}

	tp := ad.NewTape()
	tapedLogit := m.ApplyLogit(tp, tp.Input(x)).Value[0]
	if math.Abs(tapedLogit-logit) > 1e-12 {
		t.Fatalf("ApplyLogit %v vs InferLogit %v", tapedLogit, logit)
	}
}

func TestMLPPanicsOnTooFewSizes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMLP("m", []int{3}, ReLU, Identity, rand.New(rand.NewSource(1)))
}

func TestEmbeddingLookup(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	e := NewEmbedding("e", 10, 3, rng)
	if e.Vocab() != 10 || e.Table.Value.Cols != 3 {
		t.Fatalf("embedding dims vocab=%d dim=%d", e.Vocab(), e.Table.Value.Cols)
	}
	tp := ad.NewTape()
	n := e.Apply(tp, 7)
	row := e.Row(7)
	for i := range row {
		if n.Value[i] != row[i] {
			t.Fatal("Apply and Row disagree")
		}
	}
}

func TestEmbeddingPanicsOutOfRange(t *testing.T) {
	e := NewEmbedding("e", 4, 2, rand.New(rand.NewSource(1)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	e.Row(4)
}

// The canonical sanity check: a small MLP must be able to fit XOR.
func TestMLPLearnsXOR(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMLP("xor", []int{2, 8, 1}, Tanh, Sigmoid, rng)
	opt := NewAdam(0.05)
	inputs := [][]float64{{0, 0}, {0, 1}, {1, 0}, {1, 1}}
	targets := []float64{0, 1, 1, 0}
	for epoch := 0; epoch < 500; epoch++ {
		for i, x := range inputs {
			tp := ad.NewTape()
			logit := m.ApplyLogit(tp, tp.Input(x))
			_, g := BCEWithLogits(logit.Value[0], targets[i])
			tp.Backward(logit, []float64{g})
			opt.Step(m.Params())
		}
	}
	s := m.NewInferScratch()
	for i, x := range inputs {
		p := m.Infer(s, x)[0]
		if (targets[i] == 1 && p < 0.8) || (targets[i] == 0 && p > 0.2) {
			t.Fatalf("XOR not learned: input %v → %v want %v", x, p, targets[i])
		}
	}
}

func TestAdamDecreasesQuadratic(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.Value.Data[0], p.Value.Data[1] = 3, -4
	opt := NewAdam(0.1)
	for i := 0; i < 500; i++ {
		p.Grad.Data[0] = 2 * p.Value.Data[0]
		p.Grad.Data[1] = 2 * p.Value.Data[1]
		opt.Step([]*Param{p})
	}
	if math.Abs(p.Value.Data[0]) > 0.01 || math.Abs(p.Value.Data[1]) > 0.01 {
		t.Fatalf("Adam failed to minimize: %v", p.Value.Data)
	}
}

func TestOptimizerStepClearsGrad(t *testing.T) {
	p := NewParam("w", 1, 1)
	p.Grad.Data[0] = 5
	NewAdam(0.01).Step([]*Param{p})
	if p.Grad.Data[0] != 0 {
		t.Fatal("Adam.Step must zero the gradient")
	}
}

func TestLossGradientsMatchFiniteDifferences(t *testing.T) {
	const eps = 1e-6
	cases := []struct {
		name string
		f    func(pred float64) (float64, float64)
		at   []float64
	}{
		{"MAE", func(p float64) (float64, float64) { return MAELoss(p, 2.5) }, []float64{1, 4, -3}},
		{"MSE", func(p float64) (float64, float64) { return MSELoss(p, 2.5) }, []float64{1, 4, -3}},
		{"BCE0", func(p float64) (float64, float64) { return BCEWithLogits(p, 0) }, []float64{-2, 0.5, 3}},
		{"BCE1", func(p float64) (float64, float64) { return BCEWithLogits(p, 1) }, []float64{-2, 0.5, 3}},
	}
	for _, c := range cases {
		for _, x := range c.at {
			_, g := c.f(x)
			up, _ := c.f(x + eps)
			dn, _ := c.f(x - eps)
			fd := (up - dn) / (2 * eps)
			if math.Abs(fd-g) > 1e-5 {
				t.Fatalf("%s at %v: grad %v vs fd %v", c.name, x, g, fd)
			}
		}
	}
}

func TestBCEWithLogitsStableAtExtremes(t *testing.T) {
	for _, logit := range []float64{-500, 500} {
		for _, target := range []float64{0, 1} {
			loss, grad := BCEWithLogits(logit, target)
			if math.IsNaN(loss) || math.IsInf(loss, 0) || math.IsNaN(grad) {
				t.Fatalf("BCE unstable at logit=%v target=%v: loss=%v grad=%v", logit, target, loss, grad)
			}
		}
	}
}

func TestQError(t *testing.T) {
	cases := []struct{ est, truth, want float64 }{
		{10, 10, 1},
		{20, 10, 2},
		{5, 10, 2},
		{0, 10, 10},   // est clamped to 1
		{0.5, 0.2, 1}, // both clamped to 1
	}
	for _, c := range cases {
		if got := QError(c.est, c.truth); math.Abs(got-c.want) > 1e-12 {
			t.Fatalf("QError(%v,%v)=%v want %v", c.est, c.truth, got, c.want)
		}
	}
	if MeanQError([]float64{10, 20}, []float64{10, 10}) != 1.5 {
		t.Fatal("MeanQError wrong")
	}
	if MeanQError(nil, nil) != 0 {
		t.Fatal("MeanQError of empty should be 0")
	}
}

func TestLSTMLearnsSequenceSum(t *testing.T) {
	// The LSTM should fit "sum of a short sequence of scalars" — this
	// validates backpropagation through time end to end.
	rng := rand.New(rand.NewSource(6))
	cell := NewLSTMCell("lstm", 1, 8, rng)
	head := NewDense("head", 8, 1, Identity, rng)
	params := append(cell.Params(), head.Params()...)
	opt := NewAdam(0.01)

	sample := func(r *rand.Rand) ([]float64, float64) {
		n := 2 + r.Intn(3)
		xs := make([]float64, n)
		var sum float64
		for i := range xs {
			xs[i] = r.Float64()
			sum += xs[i]
		}
		return xs, sum
	}
	for epoch := 0; epoch < 800; epoch++ {
		xs, target := sample(rng)
		tp := ad.NewTape()
		nodes := make([]*ad.Node, len(xs))
		for i, v := range xs {
			nodes[i] = tp.Input([]float64{v})
		}
		out := head.Apply(tp, cell.Run(tp, nodes))
		_, g := MSELoss(out.Value[0], target)
		tp.Backward(out, []float64{g})
		opt.Step(params)
	}
	testRng := rand.New(rand.NewSource(99))
	var totalErr float64
	const trials = 50
	for i := 0; i < trials; i++ {
		xs, target := sample(testRng)
		tp := ad.NewTape()
		nodes := make([]*ad.Node, len(xs))
		for j, v := range xs {
			nodes[j] = tp.Input([]float64{v})
		}
		out := head.Apply(tp, cell.Run(tp, nodes))
		totalErr += math.Abs(out.Value[0] - target)
	}
	if mae := totalErr / trials; mae > 0.25 {
		t.Fatalf("LSTM failed to learn sequence sum: MAE %v", mae)
	}
}

func TestGRULearnsSequenceSum(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cell := NewGRUCell("gru", 1, 8, rng)
	head := NewDense("head", 8, 1, Identity, rng)
	params := append(cell.Params(), head.Params()...)
	opt := NewAdam(0.01)
	for epoch := 0; epoch < 800; epoch++ {
		n := 2 + rng.Intn(3)
		var target float64
		tp := ad.NewTape()
		nodes := make([]*ad.Node, n)
		for i := range nodes {
			v := rng.Float64()
			target += v
			nodes[i] = tp.Input([]float64{v})
		}
		out := head.Apply(tp, cell.Run(tp, nodes))
		_, g := MSELoss(out.Value[0], target)
		tp.Backward(out, []float64{g})
		opt.Step(params)
	}
	testRng := rand.New(rand.NewSource(100))
	var totalErr float64
	const trials = 50
	for i := 0; i < trials; i++ {
		n := 2 + testRng.Intn(3)
		var target float64
		tp := ad.NewTape()
		nodes := make([]*ad.Node, n)
		for j := range nodes {
			v := testRng.Float64()
			target += v
			nodes[j] = tp.Input([]float64{v})
		}
		out := head.Apply(tp, cell.Run(tp, nodes))
		totalErr += math.Abs(out.Value[0] - target)
	}
	if mae := totalErr / trials; mae > 0.25 {
		t.Fatalf("GRU failed to learn sequence sum: MAE %v", mae)
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	m := NewMLP("m", []int{3, 5, 1}, ReLU, Sigmoid, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}

	m2 := NewMLP("m", []int{3, 5, 1}, ReLU, Sigmoid, rand.New(rand.NewSource(999)))
	if err := LoadParams(bytes.NewReader(buf.Bytes()), m2.Params()); err != nil {
		t.Fatal(err)
	}
	s1, s2 := m.NewInferScratch(), m2.NewInferScratch()
	x := []float64{0.1, -0.2, 0.3}
	a, b := m.Infer(s1, x)[0], m2.Infer(s2, x)[0]
	if math.Abs(a-b) > 1e-6 { // float32 round trip
		t.Fatalf("round trip mismatch: %v vs %v", a, b)
	}
}

func TestLoadRejectsShapeMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	m := NewMLP("m", []int{3, 5, 1}, ReLU, Sigmoid, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	other := NewMLP("m", []int{3, 6, 1}, ReLU, Sigmoid, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), other.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestLoadRejectsBadMagic(t *testing.T) {
	m := NewMLP("m", []int{2, 2, 1}, ReLU, Sigmoid, rand.New(rand.NewSource(1)))
	if err := LoadParams(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8}), m.Params()); err == nil {
		t.Fatal("expected bad magic error")
	}
}

func TestSizeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	d := NewDense("d", 3, 2, Identity, rng)
	if n := NumParams(d.Params()); n != 3*2+2 {
		t.Fatalf("NumParams=%d want 8", n)
	}
	if b := SizeBytes(d.Params()); b != 4*8 {
		t.Fatalf("SizeBytes=%d want 32", b)
	}
}

func TestActivationString(t *testing.T) {
	if Identity.String() != "identity" || Sigmoid.String() != "sigmoid" ||
		Tanh.String() != "tanh" || ReLU.String() != "relu" {
		t.Fatal("Activation String labels wrong")
	}
}

func TestParamVecPanicsOnMatrix(t *testing.T) {
	p := NewParam("w", 2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p.Vec()
}

// TestLoadRejectsTruncatedStream cuts the stream at every length short of
// the whole: each prefix must fail to load, or a dropped read error would
// leave a model half initialised from a cut file.
func TestLoadRejectsTruncatedStream(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m := NewMLP("m", []int{3, 5, 1}, ReLU, Sigmoid, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	m2 := NewMLP("m", []int{3, 5, 1}, ReLU, Sigmoid, rng)
	for n := 0; n < len(full); n++ {
		if err := LoadParams(bytes.NewReader(full[:n]), m2.Params()); err == nil {
			t.Errorf("a %d-byte prefix of the %d-byte stream loaded", n, len(full))
		}
	}
}

// TestLoadRejectsLongName: a header whose name length passes the 4,096-byte
// bound fails with the bound's error, before a buffer is sized for the name.
func TestLoadRejectsLongName(t *testing.T) {
	m := NewMLP("m", []int{2, 1}, ReLU, Sigmoid, rand.New(rand.NewSource(13)))
	var buf bytes.Buffer
	for _, v := range []uint32{paramsMagic, uint32(len(m.Params())), 4097, 1, 2} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			t.Fatal(err)
		}
	}
	err := LoadParams(&buf, m.Params())
	if err == nil || !strings.Contains(err.Error(), "corrupt name length 4097") {
		t.Fatalf("LoadParams = %v, want the name-length bound's error", err)
	}
}

func TestLoadRejectsWrongParamCount(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	m := NewMLP("m", []int{3, 5, 1}, ReLU, Sigmoid, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, m.Params()); err != nil {
		t.Fatal(err)
	}
	deeper := NewMLP("m", []int{3, 5, 5, 1}, ReLU, Sigmoid, rng)
	if err := LoadParams(bytes.NewReader(buf.Bytes()), deeper.Params()); err == nil {
		t.Fatal("expected param count error")
	}
}

// Property: QError is symmetric under swapping est/truth, ≥ 1, and
// multiplicative: QError(k·x, x) == k for k ≥ 1, x ≥ 1.
func TestQErrorProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		x := 1 + r.Float64()*1e6
		k := 1 + r.Float64()*100
		if math.Abs(QError(k*x, x)-k) > 1e-9*k {
			return false
		}
		a, b := 1+r.Float64()*1e4, 1+r.Float64()*1e4
		if QError(a, b) != QError(b, a) {
			return false
		}
		return QError(a, b) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
