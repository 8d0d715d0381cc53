package train

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/mat"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// Config controls a training run.
type Config struct {
	Epochs    int
	LR        float64
	BatchSize int   // samples per optimizer step (default 32)
	Workers   int   // parallel gradient workers (default GOMAXPROCS, ≤ batch)
	Seed      int64 // shuffling seed
	// OnEpoch, when non-nil, receives the epoch number and its mean loss.
	OnEpoch func(epoch int, meanLoss float64)
}

func (c *Config) applyDefaults() {
	if c.Epochs == 0 {
		c.Epochs = 20
	}
	if c.LR == 0 {
		c.LR = 0.005
	}
	if c.BatchSize == 0 {
		c.BatchSize = 32
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Workers > c.BatchSize {
		c.Workers = c.BatchSize
	}
}

// Validate reports a Config that cannot train: a negative Epochs,
// BatchSize or Workers, or a learning rate that is negative or not finite.
// Zero means the default.
func (c Config) Validate() error {
	switch {
	case c.Epochs < 0:
		return fmt.Errorf("train: Epochs %d is negative", c.Epochs)
	case c.BatchSize < 0:
		return fmt.Errorf("train: BatchSize %d is negative", c.BatchSize)
	case c.Workers < 0:
		return fmt.Errorf("train: Workers %d is negative", c.Workers)
	case c.LR < 0 || math.IsNaN(c.LR) || math.IsInf(c.LR, 0):
		return fmt.Errorf("train: learning rate %v is not a positive finite number", c.LR)
	}
	return nil
}

// Regression trains m on samples with targets transformed by sc, minimizing
// the mean absolute error in scaled space. With the scaled-log targets of
// Scaler this equals log q-error up to the constant (max−min), Table 1's
// "Q-Error" loss. It returns the final epoch's mean loss.
func Regression(m *deepsets.Model, samples []dataset.Sample, sc Scaler, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	cfg.applyDefaults()
	if len(samples) == 0 {
		return 0, fmt.Errorf("train: no samples")
	}
	scaled := make([]float64, len(samples))
	for i, s := range samples {
		scaled[i] = sc.Scale(s.Target)
	}
	sample := func(i int) (sets.Set, float64) { return samples[i].Set, scaled[i] }
	return run(m, len(samples), cfg, sample, deepsets.LossMAE), nil
}

// Classification trains m as a learned Bloom filter (§4.3) on positive and
// negative membership samples with binary cross-entropy, returning the final
// epoch's mean loss.
func Classification(m *deepsets.Model, md *dataset.MembershipData, cfg Config) (float64, error) {
	if err := cfg.Validate(); err != nil {
		return 0, err
	}
	cfg.applyDefaults()
	n := len(md.Positive) + len(md.Negative)
	if n == 0 {
		return 0, fmt.Errorf("train: no samples")
	}
	sample := func(i int) (sets.Set, float64) {
		if i < len(md.Positive) {
			return md.Positive[i], 1
		}
		return md.Negative[i-len(md.Positive)], 0
	}
	return run(m, n, cfg, sample, deepsets.LossBCE), nil
}

// worker is one gradient worker of a training run: a train stepper over
// the model and the loss it summed over its share of the current batch.
// Worker 0 accumulates into the model's own gradients; every other worker
// into private buffers (grads) that the merge adds to the model's and
// clears.
type worker struct {
	st    *deepsets.Stepper
	grads []*mat.Matrix
	loss  float64
}

// run drives the epoch/batch loop. Each batch is split across the workers,
// which read the model's weights and accumulate gradients concurrently;
// the private gradients are then merged into the model's in worker order
// and one optimizer step applies them.
func run(m *deepsets.Model, n int, cfg Config, sample func(i int) (sets.Set, float64), loss deepsets.Loss) float64 {
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(n)
	params := m.Params()

	workers := make([]*worker, cfg.Workers)
	for w := range workers {
		wk := &worker{}
		if w > 0 {
			for _, p := range params {
				wk.grads = append(wk.grads, mat.New(p.Grad.Rows, p.Grad.Cols))
			}
		}
		wk.st = m.NewStepper(wk.grads)
		workers[w] = wk
	}

	var lastMean float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		shuffle(rng, order)
		var epochLoss float64
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			epochLoss += runBatch(workers, params, order[start:end], sample, loss)
			opt.Step(params)
		}
		lastMean = epochLoss / float64(n)
		if cfg.OnEpoch != nil {
			cfg.OnEpoch(epoch, lastMean)
		}
	}
	return lastMean
}

// runBatch splits batch into one contiguous shard per worker, steps the
// shards concurrently, merges the private gradients into params and
// returns the summed loss.
func runBatch(workers []*worker, params []*nn.Param, batch []int, sample func(i int) (sets.Set, float64), loss deepsets.Loss) float64 {
	if len(workers) == 1 {
		var total float64
		for _, i := range batch {
			s, y := sample(i)
			total += workers[0].st.Step(s, y, loss)
		}
		return total
	}

	var wg sync.WaitGroup
	for w, wk := range workers {
		wk.loss = 0
		shard := batch[w*len(batch)/len(workers) : (w+1)*len(batch)/len(workers)]
		if len(shard) == 0 {
			continue
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			var total float64
			for _, i := range shard {
				s, y := sample(i)
				total += wk.st.Step(s, y, loss)
			}
			wk.loss = total
		}()
	}
	wg.Wait()

	var total float64
	for _, wk := range workers {
		for pi, g := range wk.grads {
			mat.AddTo(params[pi].Grad.Data, g.Data)
			g.Zero()
		}
		total += wk.loss
	}
	return total
}

func shuffle(rng *rand.Rand, order []int) {
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
}
