package deepsets

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"setlearn/internal/ad"
	"setlearn/internal/mat"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// rawSet draws a set of 1..maxLen ids from [0, maxID] without
// canonicalizing, so ids repeat within a set (ties under max pooling) as
// well as across the sets of a batch.
func rawSet(rng *rand.Rand, maxLen int, maxID uint32) sets.Set {
	s := make(sets.Set, 1+rng.Intn(maxLen))
	for i := range s {
		s[i] = uint32(rng.Intn(int(maxID) + 1))
	}
	return s
}

// TestStepMatchesTape: over random models of every supported shape, the
// fused step's loss and every gradient buffer equal the tape oracle's bit
// for bit, across several batches with Adam steps in between.
func TestStepMatchesTape(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	seed := int64(0)
	for _, compressed := range []bool{false, true} {
		for _, pool := range []Pooling{SumPool, MeanPool, MaxPool} {
			for _, hidden := range []nn.Activation{nn.ReLU, nn.Tanh} {
				for _, output := range []nn.Activation{nn.Sigmoid, nn.Identity} {
					for _, rhoHidden := range [][]int{nil, {5}} {
						for _, loss := range []Loss{LossMAE, LossMSE, LossBCE} {
							seed++
							name := fmt.Sprintf("compressed=%v/%v/%v/%v/rho%d/loss%d",
								compressed, pool, hidden, output, len(rhoHidden), loss)
							cfg := Config{
								MaxID: 40, EmbedDim: 3, PhiHidden: []int{6}, PhiOut: 4,
								RhoHidden: rhoHidden, Compressed: compressed, SVD: 4,
								HiddenAct: hidden, OutputAct: output, Pool: pool, Seed: seed,
							}
							checkStepMatchesTape(t, name, cfg, loss, rng)
						}
					}
				}
			}
		}
	}
}

func checkStepMatchesTape(t *testing.T, name string, cfg Config, loss Loss, rng *rand.Rand) {
	t.Helper()
	oracle, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fused, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tp := ad.NewTape()
	st := fused.NewStepper(nil)
	optO, optF := nn.NewAdam(0.05), nn.NewAdam(0.05)
	for batch := 0; batch < 3; batch++ {
		for i := 0; i < 5; i++ {
			s := rawSet(rng, 6, cfg.MaxID)
			target := rng.Float64()
			if loss == LossBCE {
				target = float64(rng.Intn(2))
			}
			want := tapeStep(oracle, tp, s, target, loss)
			if got := st.Step(s, target, loss); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s: batch %d sample %d: loss %v, tape %v", name, batch, i, got, want)
			}
		}
		for pi, p := range oracle.Params() {
			q := fused.Params()[pi]
			for j, w := range p.Grad.Data {
				if math.Float64bits(q.Grad.Data[j]) != math.Float64bits(w) {
					t.Fatalf("%s: batch %d: %s grad[%d] = %v, tape %v", name, batch, p.Name, j, q.Grad.Data[j], w)
				}
			}
		}
		optO.Step(oracle.Params())
		optF.Step(fused.Params())
	}
}

// TestStepPrivateGradients: a stepper given its own buffers accumulates
// there and leaves the parameters' Grad untouched.
func TestStepPrivateGradients(t *testing.T) {
	m := newTestModel(t, true)
	var grads []*mat.Matrix
	for _, p := range m.Params() {
		grads = append(grads, mat.New(p.Grad.Rows, p.Grad.Cols))
	}
	m.NewStepper(grads).Step(sets.Set{3, 500, 999}, 0.5, LossMSE)
	ref := newTestModel(t, true)
	ref.NewStepper(nil).Step(sets.Set{3, 500, 999}, 0.5, LossMSE)
	for pi, p := range m.Params() {
		if mat.MaxAbs(p.Grad.Data) != 0 {
			t.Fatalf("%s: parameter gradient written", p.Name)
		}
		for j, g := range ref.Params()[pi].Grad.Data {
			if math.Float64bits(grads[pi].Data[j]) != math.Float64bits(g) {
				t.Fatalf("%s: private grad[%d] = %v, want %v", p.Name, j, grads[pi].Data[j], g)
			}
		}
	}
}

func TestStepZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, compressed := range []bool{false, true} {
		for _, pool := range []Pooling{SumPool, MeanPool, MaxPool} {
			m, err := New(Config{
				MaxID: 999, EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8, RhoHidden: []int{8},
				Compressed: compressed, OutputAct: nn.Sigmoid, Pool: pool, Seed: 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			st := m.NewStepper(nil)
			qs := randSets(rng, 3, 6, m.cfg.MaxID)
			st.Step(qs[0], 0.5, LossMAE) // warm-up: grows the element scratch
			i := 0
			n := testing.AllocsPerRun(100, func() {
				i++
				st.Step(qs[i%3], float64(i%2), Loss(i%3))
			})
			if n != 0 {
				t.Errorf("compressed=%v pool=%v: Step allocs/op = %v, want 0", compressed, pool, n)
			}
		}
	}
}

func TestStepPanics(t *testing.T) {
	st := newTestModel(t, false).NewStepper(nil)
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	expectPanic("empty set", func() { st.Step(sets.New(), 0, LossMAE) })
	expectPanic("id out of range", func() { st.Step(sets.New(1000), 0, LossMAE) })
	expectPanic("unknown loss", func() { st.Step(sets.New(1), 0, Loss(7)) })
	expectPanic("gradient count", func() { newTestModel(t, false).NewStepper([]*mat.Matrix{mat.New(1, 1)}) })
}
