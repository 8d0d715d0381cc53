package deepsets

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"setlearn/internal/ad"
	"setlearn/internal/compress"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

func newTestModel(t *testing.T, compressed bool) *Model {
	t.Helper()
	m, err := New(Config{
		MaxID:      999,
		EmbedDim:   4,
		PhiHidden:  []int{8},
		PhiOut:     8,
		RhoHidden:  []int{8},
		Compressed: compressed,
		OutputAct:  nn.Sigmoid,
		Seed:       1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestConfigDefaults(t *testing.T) {
	m, err := New(Config{MaxID: 100, Compressed: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := m.Config()
	if cfg.NS != 2 || cfg.SVD < 2 || cfg.EmbedDim == 0 || cfg.PhiOut == 0 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
}

// TestDefaultDivisor: the compressed default divisor counts the MaxID+1
// ids without wrapping at MaxID 2^32−1, and below it stays
// compress.Divisor(MaxID+1, NS).
func TestDefaultDivisor(t *testing.T) {
	divisor := func(maxID uint32, ns int) uint32 {
		c := Config{MaxID: maxID, Compressed: true, NS: ns}
		c.applyDefaults()
		return c.SVD
	}
	for ns, want := range map[int]uint32{2: 65536, 3: 1626, 4: 256} {
		if got := divisor(math.MaxUint32, ns); got != want {
			t.Errorf("MaxID 2^32−1, NS %d: divisor %d, want %d", ns, got, want)
		}
	}
	check := func(maxID uint32) {
		for ns := 2; ns <= 4; ns++ {
			if got, want := divisor(maxID, ns), compress.Divisor(maxID+1, ns); got != want {
				t.Fatalf("MaxID %d, NS %d: divisor %d, want %d", maxID, ns, got, want)
			}
		}
	}
	for m := uint32(0); m <= 10000; m++ {
		check(m)
	}
	for k := 1; k <= 32; k++ {
		for _, m := range []uint64{1<<k - 1, 1 << k, 1<<k + 1} {
			if m < math.MaxUint32 {
				check(uint32(m))
			}
		}
	}
}

func TestValidateRejectsBadConfig(t *testing.T) {
	if err := (Config{EmbedDim: -1, PhiOut: 4}).Validate(); err == nil {
		t.Fatal("expected error for negative EmbedDim")
	}
	if err := (Config{EmbedDim: 4, PhiOut: 4, Compressed: true, NS: 1, SVD: 10}).Validate(); err == nil {
		t.Fatal("expected error for NS=1")
	}
	if err := (Config{EmbedDim: 4, PhiOut: 4, Compressed: true, NS: 2, SVD: 1}).Validate(); err == nil {
		t.Fatal("expected error for SVD=1")
	}
}

func TestPermutationInvariance(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		m := newTestModel(t, compressed)
		p := m.NewPredictor()
		// Same elements presented in different orders must give identical
		// outputs. sets.New canonicalizes, so feed raw Set slices directly.
		a := sets.Set{7, 130, 999}
		b := sets.Set{999, 7, 130}
		if got, want := p.Predict(b), p.Predict(a); got != want {
			t.Fatalf("compressed=%v: permutation changed output %v vs %v", compressed, got, want)
		}
	}
}

func TestVariableSetSizes(t *testing.T) {
	m := newTestModel(t, true)
	p := m.NewPredictor()
	for n := 1; n <= 8; n++ {
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i * 111)
		}
		out := p.Predict(sets.New(ids...))
		if math.IsNaN(out) || out < 0 || out > 1 {
			t.Fatalf("size %d: output %v out of sigmoid range", n, out)
		}
	}
}

func TestCompressedDistinguishesRecombinedSubelements(t *testing.T) {
	// The §5 counterexample: X = {(q1,r1),(q2,r2)} vs Z = {(q2,r1),(q1,r2)}.
	// With SVD=10: X={91,12} → (9,1),(1,2); Z={11,92} → (1,1),(9,2).
	// A model that pooled sub-embeddings independently could not tell them
	// apart; the φ-before-pool architecture must.
	m, err := New(Config{
		MaxID: 99, EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8,
		Compressed: true, NS: 2, SVD: 10, OutputAct: nn.Sigmoid, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := m.NewPredictor()
	x := p.Predict(sets.New(91, 12))
	z := p.Predict(sets.New(11, 92))
	if x == z {
		t.Fatalf("recombined sub-element sets indistinguishable: both %v", x)
	}
}

// TestPredictMatchesTapedForward checks the folded inference path against
// the unfolded tape forward for LSM and CLSM under every pooling and with
// ρ of zero, one and two hidden layers, with and without a φ-table.
// Folding W₁ into the pool reorders floating-point sums, so the outputs
// agree within 1e-12, not bit for bit. PooledVector must equal the tape's
// unfolded pool exactly, whatever accel is installed.
func TestPredictMatchesTapedForward(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		for _, pool := range []Pooling{SumPool, MeanPool, MaxPool} {
			for _, rhoHidden := range [][]int{nil, {8}, {8, 6}} {
				m, err := New(Config{
					MaxID: 999, EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8,
					RhoHidden: rhoHidden, Compressed: compressed, Pool: pool,
					OutputAct: nn.Sigmoid, Seed: 1,
				})
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("compressed=%v/%v/rho=%v", compressed, pool, rhoHidden)
				rng := rand.New(rand.NewSource(9))
				qs := make([]sets.Set, 20)
				for i := range qs {
					ids := make([]uint32, 1+rng.Intn(6))
					for j := range ids {
						ids[j] = uint32(rng.Intn(1000))
					}
					qs[i] = sets.New(ids...)
				}
				for _, accel := range []PhiAccel{nil, m.BuildPhiTable()} {
					m.SetPhiAccel(accel)
					p := m.NewPredictor()
					for _, s := range qs {
						if got, want := p.Predict(s), m.Apply(ad.NewTape(), s).Value[0]; math.Abs(got-want) > 1e-12 {
							t.Fatalf("%s: Predict(%v) %v vs tape %v", name, s, got, want)
						}
						if got, want := p.PredictLogit(s), m.ApplyLogit(ad.NewTape(), s).Value[0]; math.Abs(got-want) > 1e-12 {
							t.Fatalf("%s: PredictLogit(%v) %v vs tape %v", name, s, got, want)
						}
						want := m.pooledNode(ad.NewTape(), s).Value
						got := p.PooledVector(nil, s)
						if len(got) != len(want) {
							t.Fatalf("%s: PooledVector has %d dims, tape %d", name, len(got), len(want))
						}
						for i := range want {
							if got[i] != want[i] {
								t.Fatalf("%s: PooledVector(%v)[%d] = %v, tape %v", name, s, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

func TestLogitSigmoidConsistency(t *testing.T) {
	m := newTestModel(t, false)
	p := m.NewPredictor()
	s := sets.New(1, 2, 3)
	logit := p.PredictLogit(s)
	if got := p.Predict(s); math.Abs(got-nn.StableSigmoid(logit)) > 1e-12 {
		t.Fatalf("sigmoid(logit) %v vs Predict %v", nn.StableSigmoid(logit), got)
	}
}

func TestCompressionShrinksModel(t *testing.T) {
	// The motivating claim of §5: for a large vocabulary the compressed
	// model is drastically smaller, because the embedding matrix dominates.
	mk := func(compressed bool) *Model {
		m, err := New(Config{
			MaxID: 200000, EmbedDim: 8, PhiHidden: []int{16}, PhiOut: 16,
			RhoHidden: []int{16}, Compressed: compressed, OutputAct: nn.Sigmoid, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	lsm, clsm := mk(false), mk(true)
	if clsm.SizeBytes()*10 > lsm.SizeBytes() {
		t.Fatalf("compression should shrink ≥10x here: LSM %d bytes, CLSM %d bytes",
			lsm.SizeBytes(), clsm.SizeBytes())
	}
	if clsm.EmbeddingSizeBytes() >= lsm.EmbeddingSizeBytes() {
		t.Fatal("compressed embeddings must be smaller")
	}
}

func TestModelLearnsSetRegression(t *testing.T) {
	// End-to-end trainability on both variants: fit y = |X|/8 (normalized
	// set size), a function any permutation-invariant model must learn.
	for _, compressed := range []bool{false, true} {
		m, err := New(Config{
			MaxID: 99, EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8,
			RhoHidden: []int{8}, Compressed: compressed, OutputAct: nn.Sigmoid, Seed: 2,
		})
		if err != nil {
			t.Fatal(err)
		}
		opt := nn.NewAdam(0.01)
		rng := rand.New(rand.NewSource(11))
		for step := 0; step < 3000; step++ {
			n := 1 + rng.Intn(8)
			ids := make([]uint32, 0, n)
			for len(ids) < n {
				ids = append(ids, uint32(rng.Intn(100)))
			}
			s := sets.New(ids...)
			target := float64(len(s)) / 8
			tp := ad.NewTape()
			out := m.Apply(tp, s)
			_, g := nn.MSELoss(out.Value[0], target)
			tp.Backward(out, []float64{g})
			opt.Step(m.Params())
		}
		p := m.NewPredictor()
		var sumErr float64
		const trials = 100
		testRng := rand.New(rand.NewSource(77))
		for i := 0; i < trials; i++ {
			n := 1 + testRng.Intn(8)
			ids := make([]uint32, 0, n)
			for len(ids) < n {
				ids = append(ids, uint32(testRng.Intn(100)))
			}
			s := sets.New(ids...)
			sumErr += math.Abs(p.Predict(s) - float64(len(s))/8)
		}
		if mae := sumErr / trials; mae > 0.08 {
			t.Fatalf("compressed=%v: failed to learn set size, MAE %v", compressed, mae)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		m := newTestModel(t, compressed)
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		m2, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		p1, p2 := m.NewPredictor(), m2.NewPredictor()
		s := sets.New(3, 500, 999)
		a, b := p1.Predict(s), p2.Predict(s)
		if math.Abs(a-b) > 1e-6 {
			t.Fatalf("compressed=%v: round trip %v vs %v", compressed, a, b)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a model"))); err == nil {
		t.Fatal("expected decode error")
	}
}

func TestPanicsOnEmptySetAndOutOfRangeID(t *testing.T) {
	m := newTestModel(t, false)
	p := m.NewPredictor()
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("empty predict", func() { p.Predict(sets.New()) })
	expectPanic("id out of range", func() { p.Predict(sets.New(1000)) })
	expectPanic("empty apply", func() { m.Apply(ad.NewTape(), sets.New()) })
}

func TestNumParamsConsistent(t *testing.T) {
	m := newTestModel(t, true)
	if m.SizeBytes() != 4*m.NumParams() {
		t.Fatalf("SizeBytes %d vs 4*NumParams %d", m.SizeBytes(), 4*m.NumParams())
	}
	if m.EmbeddingSizeBytes() >= m.SizeBytes() {
		t.Fatal("embedding bytes must be a strict subset of total")
	}
}

func BenchmarkPredictLSM(b *testing.B) {
	m, _ := New(Config{MaxID: 99999, EmbedDim: 8, PhiHidden: []int{32}, PhiOut: 32,
		RhoHidden: []int{32}, OutputAct: nn.Sigmoid, Seed: 1})
	p := m.NewPredictor()
	s := sets.New(5, 999, 42000, 77777)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Predict(s)
	}
}

func BenchmarkPredictCLSM(b *testing.B) {
	m, _ := New(Config{MaxID: 99999, EmbedDim: 8, PhiHidden: []int{32}, PhiOut: 32,
		RhoHidden: []int{32}, Compressed: true, OutputAct: nn.Sigmoid, Seed: 1})
	p := m.NewPredictor()
	s := sets.New(5, 999, 42000, 77777)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Predict(s)
	}
}

// benchTrainModel is a CLSM model at the widths the benchmark harness
// serves (embedding 8, φ and ρ 32).
func benchTrainModel(b *testing.B) *Model {
	m, err := New(Config{MaxID: 99999, EmbedDim: 8, PhiHidden: []int{32}, PhiOut: 32,
		RhoHidden: []int{32}, Compressed: true, OutputAct: nn.Sigmoid, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkTrainStepCLSM times one fused train step: forward, loss and
// backward into the gradient buffers. The optimizer runs once per batch in
// training, not per step, so it is left out.
func BenchmarkTrainStepCLSM(b *testing.B) {
	m := benchTrainModel(b)
	st := m.NewStepper(nil)
	s := sets.New(5, 999, 42000, 77777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st.Step(s, 0.5, LossMSE)
	}
}

// BenchmarkTrainStepCLSMTape is BenchmarkTrainStepCLSM on the tape oracle,
// for comparison.
func BenchmarkTrainStepCLSMTape(b *testing.B) {
	m := benchTrainModel(b)
	tp := ad.NewTape()
	s := sets.New(5, 999, 42000, 77777)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tapeStep(m, tp, s, 0.5, LossMSE)
	}
}

func TestPoolingVariants(t *testing.T) {
	for _, pool := range []Pooling{SumPool, MeanPool, MaxPool} {
		m, err := New(Config{
			MaxID: 99, EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8,
			RhoHidden: []int{8}, OutputAct: nn.Sigmoid, Pool: pool, Seed: 6,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := m.NewPredictor()
		// Permutation invariance holds for every pooling choice.
		a := p.Predict(sets.Set{7, 30, 99})
		b := p.Predict(sets.Set{99, 7, 30})
		if a != b {
			t.Fatalf("pool=%v: permutation changed output", pool)
		}
		// Predict must match the taped forward for every pooling choice.
		s := sets.New(5, 60, 88)
		tp := ad.NewTape()
		want := m.Apply(tp, s).Value[0]
		if got := p.Predict(s); math.Abs(got-want) > 1e-12 {
			t.Fatalf("pool=%v: Predict %v vs tape %v", pool, got, want)
		}
	}
}

func TestPoolingString(t *testing.T) {
	if SumPool.String() != "sum" || MeanPool.String() != "mean" || MaxPool.String() != "max" {
		t.Fatal("Pooling labels wrong")
	}
}

func TestSumPoolIsMultiplicityAware(t *testing.T) {
	// Sum pooling distinguishes {x} from the multiset {x,x}; mean and max
	// cannot. This is why cardinality models default to sum.
	mk := func(pool Pooling) float64 {
		m, err := New(Config{
			MaxID: 9, EmbedDim: 2, PhiHidden: []int{4}, PhiOut: 4,
			RhoHidden: []int{4}, OutputAct: nn.Sigmoid, Pool: pool, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		p := m.NewPredictor()
		return p.Predict(sets.Set{3, 3}) - p.Predict(sets.Set{3})
	}
	if mk(SumPool) == 0 {
		t.Fatal("sum pool should distinguish multiplicity")
	}
	if mk(MeanPool) != 0 || mk(MaxPool) != 0 {
		t.Fatal("mean/max pools should be multiplicity blind")
	}
}
