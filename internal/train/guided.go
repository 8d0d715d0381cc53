package train

import (
	"fmt"
	"math"
	"sort"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
)

// GuidedConfig controls the iterative guided-learning procedure of §6: the
// model first trains for WarmupEpochs on the full data, then samples whose
// prediction error exceeds the Percentile threshold are evicted into the
// outlier set, and training continues on the remainder. Additional
// eviction rounds repeat the measure-evict-train cycle.
type GuidedConfig struct {
	Train        Config
	WarmupEpochs int     // epochs before the first eviction (default: half of Train.Epochs)
	Percentile   float64 // 0–100; e.g. 90 evicts the worst 10% (0 disables eviction)
	Rounds       int     // eviction rounds (default 1)
}

// GuidedResult reports the outcome of guided training.
type GuidedResult struct {
	Kept      []dataset.Sample // samples the model remains responsible for
	Outliers  []dataset.Sample // evicted samples, to live in the auxiliary structure
	FinalLoss float64
}

func (c *GuidedConfig) applyDefaults() {
	c.Train.applyDefaults()
	if c.WarmupEpochs == 0 {
		c.WarmupEpochs = c.Train.Epochs / 2
		if c.WarmupEpochs == 0 {
			c.WarmupEpochs = 1
		}
	}
	if c.Rounds == 0 {
		c.Rounds = 1
	}
}

// Guided trains m on samples with eviction of hard-to-learn outliers. The
// returned outliers must be stored in the hybrid structure's auxiliary
// index; the model answers only for kept samples.
func Guided(m *deepsets.Model, samples []dataset.Sample, sc Scaler, cfg GuidedConfig) (*GuidedResult, error) {
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if cfg.Percentile < 0 || cfg.Percentile > 100 {
		return nil, fmt.Errorf("train: percentile %v out of [0,100]", cfg.Percentile)
	}

	res := &GuidedResult{Kept: samples}
	if cfg.Percentile == 0 || cfg.Percentile == 100 {
		// No eviction: plain training ("No Removal" in Table 5).
		loss, err := Regression(m, samples, sc, cfg.Train)
		res.FinalLoss = loss
		return res, err
	}

	remaining := cfg.Train.Epochs
	warmCfg := cfg.Train
	warmCfg.Epochs = cfg.WarmupEpochs
	if warmCfg.Epochs > remaining {
		warmCfg.Epochs = remaining
	}
	if _, err := Regression(m, res.Kept, sc, warmCfg); err != nil {
		return nil, err
	}
	remaining -= warmCfg.Epochs

	for round := 0; round < cfg.Rounds; round++ {
		errs := AbsErrors(m, res.Kept, sc)
		threshold := Percentile(errs, cfg.Percentile)
		var kept, evicted []dataset.Sample
		for i, s := range res.Kept {
			if errs[i] > threshold {
				evicted = append(evicted, s)
			} else {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			// Degenerate distribution: everything is an outlier; the hybrid
			// falls back to the auxiliary structure (§6 "worst case").
			res.Outliers = append(res.Outliers, evicted...)
			res.Kept = nil
			return res, nil
		}
		res.Kept = kept
		res.Outliers = append(res.Outliers, evicted...)

		epochs := remaining
		if round+1 < cfg.Rounds {
			epochs = remaining / (cfg.Rounds - round)
		}
		if epochs > 0 {
			contCfg := cfg.Train
			contCfg.Epochs = epochs
			loss, err := Regression(m, res.Kept, sc, contCfg)
			if err != nil {
				return nil, err
			}
			res.FinalLoss = loss
			remaining -= epochs
		}
	}
	return res, nil
}

// AbsErrors returns |estimate − target| in raw (unscaled) space for every
// sample — the eviction criterion and the error-bound input of Algorithm 2.
func AbsErrors(m *deepsets.Model, samples []dataset.Sample, sc Scaler) []float64 {
	p := m.NewPredictor()
	out := make([]float64, len(samples))
	for i, s := range samples {
		est := sc.Unscale(p.Predict(s.Set))
		out[i] = math.Abs(est - s.Target)
	}
	return out
}

// QErrors returns the per-sample q-error metric in raw space.
func QErrors(m *deepsets.Model, samples []dataset.Sample, sc Scaler) []float64 {
	p := m.NewPredictor()
	out := make([]float64, len(samples))
	for i, s := range samples {
		est := sc.Unscale(p.Predict(s.Set))
		out[i] = qError(est, s.Target)
	}
	return out
}

func qError(est, truth float64) float64 {
	if est < 1 {
		est = 1
	}
	if truth < 1 {
		truth = 1
	}
	if est > truth {
		return est / truth
	}
	return truth / est
}

// Percentile returns the p-th percentile (nearest-rank) of xs; xs is not
// modified.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// Mean returns the arithmetic mean of xs (0 for empty input).
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// AutoGuidedConfig drives the automatic threshold setting of §6: instead of
// a fixed eviction percentile, eviction rounds continue until the model's
// mean q-error over the samples it keeps reaches TargetQError ("we set the
// error to always reach a q-error in the range [1, 1.4]"), or until
// MaxEvictFraction of the data has been evicted (the memory/accuracy
// balance knob).
type AutoGuidedConfig struct {
	Train            Config
	WarmupEpochs     int     // epochs before the first eviction (default: half)
	TargetQError     float64 // stop once mean kept q-error ≤ this (default 1.4)
	StepPercent      float64 // evicted per round, % of remaining (default 10)
	MaxEvictFraction float64 // hard cap on total eviction (default 0.5)
	RoundEpochs      int     // extra epochs after each eviction (default 3)
	MaxRounds        int     // safety bound (default 10)
}

func (c *AutoGuidedConfig) applyDefaults() {
	c.Train.applyDefaults()
	if c.WarmupEpochs == 0 {
		c.WarmupEpochs = c.Train.Epochs / 2
		if c.WarmupEpochs == 0 {
			c.WarmupEpochs = 1
		}
	}
	if c.TargetQError == 0 {
		c.TargetQError = 1.4
	}
	if c.StepPercent == 0 {
		c.StepPercent = 10
	}
	if c.MaxEvictFraction == 0 {
		c.MaxEvictFraction = 0.5
	}
	if c.RoundEpochs == 0 {
		c.RoundEpochs = 3
	}
	if c.MaxRounds == 0 {
		c.MaxRounds = 10
	}
}

// AutoGuided trains m, evicting outliers round by round until the kept
// q-error reaches the target or the eviction budget is spent. In the best
// case the result is a model with the prespecified error; in the worst
// case the structure approaches the paper's auxiliary-only fallback.
func AutoGuided(m *deepsets.Model, samples []dataset.Sample, sc Scaler, cfg AutoGuidedConfig) (*GuidedResult, error) {
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	cfg.applyDefaults()
	if cfg.TargetQError < 1 {
		return nil, fmt.Errorf("train: target q-error %v below 1", cfg.TargetQError)
	}
	res := &GuidedResult{Kept: samples}

	warmCfg := cfg.Train
	warmCfg.Epochs = cfg.WarmupEpochs
	if _, err := Regression(m, res.Kept, sc, warmCfg); err != nil {
		return nil, err
	}

	maxEvict := int(cfg.MaxEvictFraction * float64(len(samples)))
	for round := 0; round < cfg.MaxRounds; round++ {
		qs := QErrors(m, res.Kept, sc)
		if Mean(qs) <= cfg.TargetQError {
			break
		}
		if len(res.Outliers) >= maxEvict {
			break
		}
		threshold := Percentile(qs, 100-cfg.StepPercent)
		var kept, evicted []dataset.Sample
		for i, s := range res.Kept {
			if qs[i] > threshold && len(res.Outliers)+len(evicted) < maxEvict {
				evicted = append(evicted, s)
			} else {
				kept = append(kept, s)
			}
		}
		if len(evicted) == 0 || len(kept) == 0 {
			break
		}
		res.Kept = kept
		res.Outliers = append(res.Outliers, evicted...)

		roundCfg := cfg.Train
		roundCfg.Epochs = cfg.RoundEpochs
		loss, err := Regression(m, res.Kept, sc, roundCfg)
		if err != nil {
			return nil, err
		}
		res.FinalLoss = loss
	}
	return res, nil
}
