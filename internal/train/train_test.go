package train

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

func TestScalerRoundTrip(t *testing.T) {
	samples := []dataset.Sample{
		{Set: sets.New(1), Target: 0},
		{Set: sets.New(2), Target: 10},
		{Set: sets.New(3), Target: 99999},
	}
	sc := FitScaler(samples)
	for _, s := range samples {
		v := sc.Scale(s.Target)
		if v < 0 || v > 1 {
			t.Fatalf("scaled %v out of [0,1]", v)
		}
		back := sc.Unscale(v)
		if math.Abs(back-s.Target) > 1e-6*(1+s.Target) {
			t.Fatalf("roundtrip %v → %v → %v", s.Target, v, back)
		}
	}
}

func TestScalerClampsOutOfRange(t *testing.T) {
	sc := FitScaler([]dataset.Sample{{Target: 1}, {Target: 100}})
	if sc.Unscale(-0.5) != 1 {
		t.Fatalf("below-range unscale should clamp to min, got %v", sc.Unscale(-0.5))
	}
	if math.Abs(sc.Unscale(1.5)-100) > 1e-9 {
		t.Fatalf("above-range unscale should clamp to max, got %v", sc.Unscale(1.5))
	}
}

func TestScalerDegenerateTargets(t *testing.T) {
	sc := FitScaler([]dataset.Sample{{Target: 5}, {Target: 5}})
	v := sc.Scale(5)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		t.Fatalf("degenerate scaler produced %v", v)
	}
	if math.Abs(sc.Unscale(v)-5) > 1e-9 {
		t.Fatal("degenerate roundtrip broken")
	}
}

func TestScalerEmpty(t *testing.T) {
	sc := FitScaler(nil)
	if math.IsNaN(sc.Scale(3)) {
		t.Fatal("empty scaler must still be usable")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	cases := []struct{ p, want float64 }{
		{0, 1}, {20, 1}, {40, 2}, {60, 3}, {80, 4}, {100, 5}, {90, 5},
	}
	for _, c := range cases {
		if got := Percentile(xs, c.p); got != c.want {
			t.Fatalf("Percentile(%v)=%v want %v", c.p, got, c.want)
		}
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
	// Input must not be mutated.
	if xs[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestMean(t *testing.T) {
	if Mean([]float64{1, 2, 3}) != 2 {
		t.Fatal("Mean wrong")
	}
	if Mean(nil) != 0 {
		t.Fatal("Mean of empty should be 0")
	}
}

func smallCollection() (*sets.Collection, *dataset.SubsetStats) {
	c := dataset.GenerateSD(300, 40, 1)
	return c, dataset.CollectSubsets(c, 3)
}

func newModel(tb testing.TB, maxID uint32, compressed bool) *deepsets.Model {
	tb.Helper()
	m, err := deepsets.New(deepsets.Config{
		MaxID: maxID, EmbedDim: 4, PhiHidden: []int{16}, PhiOut: 16,
		RhoHidden: []int{32}, Compressed: compressed, OutputAct: nn.Sigmoid, Seed: 5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func TestRegressionLearnsCardinalities(t *testing.T) {
	c, st := smallCollection()
	samples := st.CardinalitySamples()
	sc := FitScaler(samples)
	m := newModel(t, c.MaxID(), false)
	last, err := Regression(m, samples, sc, Config{Epochs: 30, LR: 0.01, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(last) {
		t.Fatal("NaN loss")
	}
	qe := Mean(QErrors(m, samples, sc))
	if qe > 3.5 {
		t.Fatalf("cardinality model failed to learn: mean q-error %v", qe)
	}
}

func TestRegressionParallelMatchesSequentialQuality(t *testing.T) {
	// Parallel workers shard batches differently but must reach comparable
	// quality — this guards the gradient-merge path.
	c, st := smallCollection()
	samples := st.CardinalitySamples()
	sc := FitScaler(samples)

	m := newModel(t, c.MaxID(), false)
	if _, err := Regression(m, samples, sc, Config{Epochs: 15, LR: 0.01, Seed: 1, Workers: 4, BatchSize: 64}); err != nil {
		t.Fatal(err)
	}
	qe := Mean(QErrors(m, samples, sc))
	if qe > 4.5 {
		t.Fatalf("parallel training diverged: mean q-error %v", qe)
	}
}

func TestRegressionEmptySamplesErrors(t *testing.T) {
	m := newModel(t, 10, false)
	if _, err := Regression(m, nil, Scaler{Max: 1}, Config{}); err == nil {
		t.Fatal("expected error for empty samples")
	}
}

func TestClassificationLearnsMembership(t *testing.T) {
	// A sparse RW-like collection: random element combinations rarely
	// co-occur, so membership is learnable. (The tiny dense SD used by the
	// other tests is near-adversarial for memorization at this scale.)
	c := dataset.GenerateRW(300, 600, 5)
	st := dataset.CollectSubsets(c, 3)
	md := st.MembershipSamples(c, 3, 1.0, 2)
	if len(md.Negative) == 0 {
		t.Skip("no negatives for this seed")
	}
	m, err := deepsets.New(deepsets.Config{
		MaxID: c.MaxID(), EmbedDim: 8, PhiHidden: []int{32}, PhiOut: 32,
		RhoHidden: []int{32}, OutputAct: nn.Sigmoid, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Classification(m, md, Config{Epochs: 30, LR: 0.01, Seed: 2, Workers: 1}); err != nil {
		t.Fatal(err)
	}
	p := m.NewPredictor()
	correct, total := 0, 0
	for i, s := range md.Positive {
		if i%7 != 0 {
			continue
		}
		total++
		if p.Predict(s) > 0.5 {
			correct++
		}
	}
	for i, s := range md.Negative {
		if i%7 != 0 {
			continue
		}
		total++
		if p.Predict(s) <= 0.5 {
			correct++
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Fatalf("membership accuracy %v too low", acc)
	}
}

func TestClassificationEmptyErrors(t *testing.T) {
	m := newModel(t, 10, false)
	if _, err := Classification(m, &dataset.MembershipData{}, Config{}); err == nil {
		t.Fatal("expected error for empty membership data")
	}
}

func TestGuidedEvictsWorstSamples(t *testing.T) {
	c, st := smallCollection()
	samples := st.IndexSamples()
	sc := FitScaler(samples)
	m := newModel(t, c.MaxID(), false)
	res, err := Guided(m, samples, sc, GuidedConfig{
		Train:      Config{Epochs: 20, LR: 0.01, Seed: 3, Workers: 1},
		Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outliers) == 0 {
		t.Fatal("no outliers evicted at percentile 90")
	}
	if len(res.Kept)+len(res.Outliers) != len(samples) {
		t.Fatalf("samples lost: kept %d + outliers %d != %d",
			len(res.Kept), len(res.Outliers), len(samples))
	}
	// Roughly 10% should be evicted (single round, nearest-rank).
	frac := float64(len(res.Outliers)) / float64(len(samples))
	if frac > 0.2 {
		t.Fatalf("evicted fraction %v far above 10%%", frac)
	}

	// The paper's central claim for the hybrid (§8.2.1): eviction improves
	// the model's error on the data it remains responsible for.
	keptErr := Mean(QErrors(m, res.Kept, sc))
	allErr := Mean(QErrors(m, samples, sc))
	if keptErr > allErr {
		t.Fatalf("guided learning did not help: kept %v vs all %v", keptErr, allErr)
	}
}

func TestGuidedNoRemoval(t *testing.T) {
	c, st := smallCollection()
	samples := st.IndexSamples()
	sc := FitScaler(samples)
	m := newModel(t, c.MaxID(), false)
	res, err := Guided(m, samples, sc, GuidedConfig{
		Train:      Config{Epochs: 4, LR: 0.01, Seed: 3, Workers: 1},
		Percentile: 0, // disabled
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outliers) != 0 || len(res.Kept) != len(samples) {
		t.Fatal("percentile 0 must disable eviction")
	}
}

func TestGuidedRejectsBadPercentile(t *testing.T) {
	m := newModel(t, 10, false)
	_, err := Guided(m, []dataset.Sample{{Set: sets.New(1), Target: 1}}, Scaler{Max: 1},
		GuidedConfig{Percentile: 150})
	if err == nil {
		t.Fatal("expected percentile range error")
	}
}

// TestAbsErrorsAndQErrors: the chunked batch evaluation returns, bit for
// bit, what one Predict per sample gives, over more samples than one chunk
// so the memo is rebuilt between chunks.
func TestAbsErrorsAndQErrors(t *testing.T) {
	c, st := smallCollection()
	base := st.CardinalitySamples()
	samples := make([]dataset.Sample, evalChunk+37)
	for i := range samples {
		samples[i] = base[i%len(base)]
	}
	sc := FitScaler(samples)
	m := newModel(t, c.MaxID(), false)
	abs := AbsErrors(m, samples, sc)
	qes := QErrors(m, samples, sc)
	if len(abs) != len(samples) || len(qes) != len(samples) {
		t.Fatal("length mismatch")
	}
	p := m.NewPredictor()
	for i, s := range samples {
		est := sc.Unscale(p.Predict(s.Set))
		if want := math.Abs(est - s.Target); math.Float64bits(abs[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: abs error %v, per-sample Predict gives %v", i, abs[i], want)
		}
		if want := qError(est, s.Target); math.Float64bits(qes[i]) != math.Float64bits(want) {
			t.Fatalf("sample %d: q-error %v, per-sample Predict gives %v", i, qes[i], want)
		}
		if qes[i] < 1 || math.IsNaN(qes[i]) {
			t.Fatalf("q-error below 1: %v", qes[i])
		}
	}
}

// TestOnEpoch: the hook runs once per epoch, in order, with a finite mean
// loss, and the last one is the loss Regression returns.
func TestOnEpoch(t *testing.T) {
	c, st := smallCollection()
	samples := st.CardinalitySamples()[:100]
	sc := FitScaler(samples)
	m := newModel(t, c.MaxID(), false)
	var epochs []int
	var last float64
	final, err := Regression(m, samples, sc, Config{
		Epochs: 5, LR: 0.05, Seed: 1, Workers: 1,
		OnEpoch: func(epoch int, meanLoss float64) {
			epochs = append(epochs, epoch)
			if math.IsNaN(meanLoss) || math.IsInf(meanLoss, 0) || meanLoss < 0 {
				t.Errorf("epoch %d: mean loss %v", epoch, meanLoss)
			}
			last = meanLoss
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 5 {
		t.Fatalf("OnEpoch ran %d times over 5 epochs", len(epochs))
	}
	for i, e := range epochs {
		if e != i {
			t.Fatalf("OnEpoch epochs %v, want 0..4 in order", epochs)
		}
	}
	if last != final {
		t.Fatalf("last OnEpoch loss %v, Regression returned %v", last, final)
	}
}

// Property: Scale is monotone and Unscale inverts it over the fitted range.
func TestScalerPropertyMonotoneInverse(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(20)
		samples := make([]dataset.Sample, n)
		for i := range samples {
			samples[i].Target = float64(r.Intn(1 << 20))
		}
		sc := FitScaler(samples)
		prev := math.Inf(-1)
		sorted := append([]dataset.Sample(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Target < sorted[j].Target })
		for _, s := range sorted {
			v := sc.Scale(s.Target)
			if v < prev-1e-12 {
				return false // monotonicity violated
			}
			prev = v
			if back := sc.Unscale(v); math.Abs(back-s.Target) > 1e-6*(1+s.Target) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Property: Percentile is bounded by min/max and monotone in p.
func TestPercentileProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(50)
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64() * 100
		}
		lo, hi := Percentile(xs, 0), Percentile(xs, 100)
		prev := lo
		for p := 0.0; p <= 100; p += 7 {
			v := Percentile(xs, p)
			if v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestAutoGuidedReachesTargetOrBudget(t *testing.T) {
	c, st := smallCollection()
	samples := st.IndexSamples()
	sc := FitScaler(samples)
	m := newModel(t, c.MaxID(), false)
	res, err := AutoGuided(m, samples, sc, AutoGuidedConfig{
		Train:        Config{Epochs: 16, LR: 0.01, Seed: 5, Workers: 1},
		TargetQError: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kept)+len(res.Outliers) != len(samples) {
		t.Fatal("sample conservation violated")
	}
	keptQ := Mean(QErrors(m, res.Kept, sc))
	evictFrac := float64(len(res.Outliers)) / float64(len(samples))
	// Either the target was reached, or the budget was exhausted trying.
	if keptQ > 1.4 && evictFrac < 0.49 {
		t.Fatalf("neither target (%v) nor budget (%v) reached", keptQ, evictFrac)
	}
	if evictFrac > 0.51 {
		t.Fatalf("eviction cap exceeded: %v", evictFrac)
	}
}

func TestAutoGuidedRejectsBadTarget(t *testing.T) {
	m := newModel(t, 10, false)
	_, err := AutoGuided(m, []dataset.Sample{{Set: sets.New(1), Target: 1}}, Scaler{Max: 1},
		AutoGuidedConfig{TargetQError: 0.5})
	if err == nil {
		t.Fatal("expected target range error")
	}
}

func TestAutoGuidedStopsEarlyWhenEasy(t *testing.T) {
	// A trivially learnable distribution: constant target. The model should
	// hit the q-error target with little or no eviction.
	samples := make([]dataset.Sample, 200)
	for i := range samples {
		samples[i] = dataset.Sample{Set: sets.New(uint32(i % 10)), Target: 5}
	}
	sc := FitScaler(samples)
	m := newModel(t, 10, false)
	res, err := AutoGuided(m, samples, sc, AutoGuidedConfig{
		Train:        Config{Epochs: 10, LR: 0.02, Seed: 6, Workers: 1},
		TargetQError: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if frac := float64(len(res.Outliers)) / 200; frac > 0.15 {
		t.Fatalf("easy distribution evicted %v of the data", frac)
	}
}

// TestInvalidConfigRejected: every training entry point rejects a negative
// Epochs, BatchSize or Workers and a negative or non-finite learning rate
// before touching the model; zero still means the default.
func TestInvalidConfigRejected(t *testing.T) {
	c, st := smallCollection()
	samples := st.CardinalitySamples()[:40]
	sc := FitScaler(samples)
	md := &dataset.MembershipData{Positive: []sets.Set{sets.New(1, 2)}, Negative: []sets.Set{sets.New(3, 4)}}
	for _, cfg := range []Config{
		{BatchSize: -1},
		{Epochs: -1},
		{Workers: -1},
		{LR: -0.5},
		{LR: math.NaN()},
		{LR: math.Inf(1)},
	} {
		m := newModel(t, c.MaxID(), false)
		before := weightDigest(m)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%+v: Validate accepted it", cfg)
		}
		if _, err := Regression(m, samples, sc, cfg); err == nil {
			t.Errorf("%+v: Regression accepted it", cfg)
		}
		if _, err := Classification(m, md, cfg); err == nil {
			t.Errorf("%+v: Classification accepted it", cfg)
		}
		if _, err := Guided(m, samples, sc, GuidedConfig{Train: cfg, Percentile: 90}); err == nil {
			t.Errorf("%+v: Guided accepted it", cfg)
		}
		if _, err := AutoGuided(m, samples, sc, AutoGuidedConfig{Train: cfg}); err == nil {
			t.Errorf("%+v: AutoGuided accepted it", cfg)
		}
		if weightDigest(m) != before {
			t.Errorf("%+v: a rejected config changed the weights", cfg)
		}
	}
	if err := (Config{}).Validate(); err != nil {
		t.Errorf("zero Config rejected: %v", err)
	}
}

// TestWideModelTrainsWithWorkers: the workers share the model's weights
// rather than cloning it through the hardened loader, whose width limit
// (2^14) a model New accepts can exceed.
func TestWideModelTrainsWithWorkers(t *testing.T) {
	m, err := deepsets.New(deepsets.Config{
		MaxID: 20, EmbedDim: 2, PhiHidden: []int{4}, PhiOut: 16385,
		RhoHidden: []int{4}, OutputAct: nn.Sigmoid, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	samples := make([]dataset.Sample, 8)
	for i := range samples {
		samples[i] = dataset.Sample{Set: sets.New(uint32(i), uint32(i+5)), Target: float64(i)}
	}
	loss, err := Regression(m, samples, FitScaler(samples), Config{Epochs: 1, BatchSize: 4, Workers: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(loss) || math.IsInf(loss, 0) {
		t.Fatalf("loss %v", loss)
	}
}

// BenchmarkTrainEpoch times one cardinality-training epoch at the model
// configuration the benchmark harness builds: CLSM with embedding 8, φ and
// ρ 32 wide, over the subsets (≤3) of 1,000 RW sets, with one worker and
// with the harness's two.
func BenchmarkTrainEpoch(b *testing.B) {
	c := dataset.GenerateRW(1000, 1500, 42)
	samples := dataset.CollectSubsets(c, 3).CardinalitySamples()
	sc := FitScaler(samples)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m, err := deepsets.New(deepsets.Config{
				MaxID: c.MaxID(), EmbedDim: 8, PhiHidden: []int{32}, PhiOut: 32,
				RhoHidden: []int{32}, Compressed: true, OutputAct: nn.Sigmoid, Seed: 1,
			})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Regression(m, samples, sc, Config{Epochs: 1, Workers: workers, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(samples)), "samples/epoch")
		})
	}
}
