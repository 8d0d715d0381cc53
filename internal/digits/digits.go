// Package digits reproduces the paper's Figure 7 experiment (§8.5.1),
// itself taken from the original DeepSets paper: models are trained to
// predict the sum of a multiset of at most TrainMaxM digits and tested on
// far larger multisets (M up to 100). DeepSets — compressed or not —
// generalizes across set sizes because the sum pool scales linearly with
// cardinality; LSTM and GRU, which consume the digits as a sequence, do
// not.
package digits

import (
	"fmt"
	"math"
	"math/rand"

	"setlearn/internal/ad"
	"setlearn/internal/deepsets"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// Config parameterizes the experiment.
type Config struct {
	TrainSets int   // number of training multisets (paper: 100 000)
	TrainMaxM int   // maximum training multiset size (paper: 10)
	MaxVal    int   // digit values are drawn from [1, MaxVal] (paper: 10, 100, 1000)
	TestMs    []int // multiset sizes to evaluate (paper: 5..100)
	TestSets  int   // test multisets per M (paper: 10 000)
	Epochs    int
	LR        float64
	EmbedDim  int
	Hidden    int
	Seed      int64
}

func (c *Config) applyDefaults() {
	if c.TrainSets == 0 {
		c.TrainSets = 2000
	}
	if c.TrainMaxM == 0 {
		c.TrainMaxM = 10
	}
	if c.MaxVal == 0 {
		c.MaxVal = 10
	}
	if len(c.TestMs) == 0 {
		c.TestMs = []int{5, 10, 20, 50, 100}
	}
	if c.TestSets == 0 {
		c.TestSets = 200
	}
	if c.Epochs == 0 {
		c.Epochs = 10
	}
	if c.LR == 0 {
		c.LR = 0.003
	}
	if c.EmbedDim == 0 {
		c.EmbedDim = 16
	}
	if c.Hidden == 0 {
		c.Hidden = 32
	}
}

// ModelName identifies a competitor.
type ModelName string

// The four competitors of Figure 7.
const (
	DeepSets  ModelName = "DeepSets"
	CDeepSets ModelName = "CDeepSets"
	LSTM      ModelName = "LSTM"
	GRU       ModelName = "GRU"
)

// Result is the MAE of each model at one test multiset size.
type Result struct {
	M   int
	MAE map[ModelName]float64
}

// SizeReport is the memory comparison quoted in §8.5.1.
type SizeReport struct {
	DeepSetsBytes  int
	CDeepSetsBytes int
}

// digitSum is one sample: a multiset of digit values (1-based ids) and its
// sum. Digits repeat, so the slice is NOT canonicalized — DeepSets handles
// multisets transparently since the sum pool is multiplicity-aware.
type digitSum struct {
	digits []uint32
	sum    float64
}

func sample(rng *rand.Rand, m, maxVal int) digitSum {
	n := 1 + rng.Intn(m)
	d := digitSum{digits: make([]uint32, n)}
	for i := range d.digits {
		v := 1 + rng.Intn(maxVal)
		d.digits[i] = uint32(v)
		d.sum += float64(v)
	}
	return d
}

func sampleExact(rng *rand.Rand, m, maxVal int) digitSum {
	d := digitSum{digits: make([]uint32, m)}
	for i := range d.digits {
		v := 1 + rng.Intn(maxVal)
		d.digits[i] = uint32(v)
		d.sum += float64(v)
	}
	return d
}

// seqModel wraps an RNN competitor: embedding → cell over the sequence →
// linear head.
type seqModel struct {
	embed *nn.Embedding
	lstm  *nn.LSTMCell
	gru   *nn.GRUCell
	head  *nn.Dense
}

func (s *seqModel) params() []*nn.Param {
	ps := s.embed.Params()
	if s.lstm != nil {
		ps = append(ps, s.lstm.Params()...)
	}
	if s.gru != nil {
		ps = append(ps, s.gru.Params()...)
	}
	return append(ps, s.head.Params()...)
}

func (s *seqModel) apply(tp *ad.Tape, digits []uint32) *ad.Node {
	xs := make([]*ad.Node, len(digits))
	for i, d := range digits {
		xs[i] = s.embed.Apply(tp, int(d))
	}
	var h *ad.Node
	if s.lstm != nil {
		h = s.lstm.Run(tp, xs)
	} else {
		h = s.gru.Run(tp, xs)
	}
	return s.head.Apply(tp, h)
}

// Run trains all four models on identical data and returns per-M MAEs plus
// the DeepSets-vs-compressed size comparison.
func Run(cfg Config) ([]Result, SizeReport, error) {
	cfg.applyDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))

	trainData := make([]digitSum, cfg.TrainSets)
	for i := range trainData {
		trainData[i] = sample(rng, cfg.TrainMaxM, cfg.MaxVal)
	}
	// Targets are scaled by the maximum training sum so every model sees
	// targets in (0,1]; at test time predictions are unscaled again. The
	// linear head lets DeepSets extrapolate beyond 1.0 for larger sets.
	norm := float64(cfg.TrainMaxM * cfg.MaxVal)

	// ρ is a single linear layer, as in the original DeepSets digit-sum
	// model: the prediction stays linear in the pooled sum, which is what
	// lets the model extrapolate far beyond the trained set size. A
	// nonlinear ρ saturates on large pools and cannot extrapolate.
	dsCfg := deepsets.Config{
		MaxID: uint32(cfg.MaxVal), EmbedDim: cfg.EmbedDim,
		PhiHidden: []int{cfg.Hidden}, PhiOut: cfg.Hidden,
		HiddenAct: nn.Tanh, OutputAct: nn.Identity, Seed: cfg.Seed,
	}
	ds, err := deepsets.New(dsCfg)
	if err != nil {
		return nil, SizeReport{}, fmt.Errorf("digits: %w", err)
	}
	cdsCfg := dsCfg
	cdsCfg.Compressed = true
	cdsCfg.NS = 2
	cds, err := deepsets.New(cdsCfg)
	if err != nil {
		return nil, SizeReport{}, fmt.Errorf("digits: %w", err)
	}

	wrng := rand.New(rand.NewSource(cfg.Seed + 1))
	lstm := &seqModel{
		embed: nn.NewEmbedding("lstm.emb", cfg.MaxVal+1, cfg.EmbedDim, wrng),
		lstm:  nn.NewLSTMCell("lstm", cfg.EmbedDim, cfg.Hidden, wrng),
		head:  nn.NewDense("lstm.head", cfg.Hidden, 1, nn.Identity, wrng),
	}
	gru := &seqModel{
		embed: nn.NewEmbedding("gru.emb", cfg.MaxVal+1, cfg.EmbedDim, wrng),
		gru:   nn.NewGRUCell("gru", cfg.EmbedDim, cfg.Hidden, wrng),
		head:  nn.NewDense("gru.head", cfg.Hidden, 1, nn.Identity, wrng),
	}

	// Train: one Adam per model, same shuffled stream.
	type trainee struct {
		name   ModelName
		step   func(d digitSum)
		opt    *nn.Adam
		params []*nn.Param
	}
	dsStep := func(m *deepsets.Model) func(d digitSum) {
		st := m.NewStepper(nil)
		return func(d digitSum) { st.Step(sets.Set(d.digits), d.sum/norm, deepsets.LossMSE) }
	}
	tp := ad.NewTape()
	seqStep := func(s *seqModel) func(d digitSum) {
		return func(d digitSum) {
			tp.Reset()
			out := s.apply(tp, d.digits)
			_, g := nn.MSELoss(out.Value[0], d.sum/norm)
			tp.Backward(out, []float64{g})
		}
	}
	trainees := []trainee{
		{DeepSets, dsStep(ds), nn.NewAdam(cfg.LR), ds.Params()},
		{CDeepSets, dsStep(cds), nn.NewAdam(cfg.LR), cds.Params()},
		{LSTM, seqStep(lstm), nn.NewAdam(cfg.LR), lstm.params()},
		{GRU, seqStep(gru), nn.NewAdam(cfg.LR), gru.params()},
	}
	order := rng.Perm(len(trainData))
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		for _, i := range order {
			for _, tr := range trainees {
				tr.step(trainData[i])
				tr.opt.Step(tr.params)
			}
		}
	}

	// Evaluate.
	dsPred := ds.NewPredictor()
	cdsPred := cds.NewPredictor()
	evalSeq := func(s *seqModel, digits []uint32) float64 {
		tp.Reset()
		return s.apply(tp, digits).Value[0]
	}
	results := make([]Result, 0, len(cfg.TestMs))
	for _, m := range cfg.TestMs {
		testRng := rand.New(rand.NewSource(cfg.Seed + int64(1000+m)))
		maes := map[ModelName]float64{}
		for i := 0; i < cfg.TestSets; i++ {
			d := sampleExact(testRng, m, cfg.MaxVal)
			maes[DeepSets] += math.Abs(dsPred.Predict(sets.Set(d.digits))*norm - d.sum)
			maes[CDeepSets] += math.Abs(cdsPred.Predict(sets.Set(d.digits))*norm - d.sum)
			maes[LSTM] += math.Abs(evalSeq(lstm, d.digits)*norm - d.sum)
			maes[GRU] += math.Abs(evalSeq(gru, d.digits)*norm - d.sum)
		}
		for k := range maes {
			maes[k] /= float64(cfg.TestSets)
		}
		results = append(results, Result{M: m, MAE: maes})
	}
	sizes := SizeReport{DeepSetsBytes: ds.EmbeddingSizeBytes(), CDeepSetsBytes: cds.EmbeddingSizeBytes()}
	return results, sizes, nil
}
