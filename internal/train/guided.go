package train

import (
	"fmt"
	"math"
	"sort"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// GuidedConfig controls the guided-learning procedure of §6: the model
// first trains for half the epochs (at least one) on the full data, then
// samples whose prediction error exceeds the Percentile threshold are
// evicted into the outlier set, and training continues on the remainder for
// the remaining epochs.
type GuidedConfig struct {
	Train      Config
	Percentile float64 // 0–100; e.g. 90 evicts the worst 10% (0 disables eviction)
}

// GuidedResult reports the outcome of guided training.
type GuidedResult struct {
	Kept     []dataset.Sample // samples the model remains responsible for
	Outliers []dataset.Sample // evicted samples, to live in the auxiliary structure
}

// warmup is how many of the epochs both guided procedures train on the
// full data before the first eviction: half, at least one.
func warmup(epochs int) int { return max(epochs/2, 1) }

// Guided trains m on samples with eviction of hard-to-learn outliers. The
// returned outliers must be stored in the hybrid structure's auxiliary
// index; the model answers only for kept samples.
func Guided(m *deepsets.Model, samples []dataset.Sample, sc Scaler, cfg GuidedConfig) (*GuidedResult, error) {
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	cfg.Train.applyDefaults()
	if cfg.Percentile < 0 || cfg.Percentile > 100 {
		return nil, fmt.Errorf("train: percentile %v out of [0,100]", cfg.Percentile)
	}

	if cfg.Percentile == 0 || cfg.Percentile == 100 {
		// No eviction: plain training ("No Removal" in Table 5).
		_, err := Regression(m, samples, sc, cfg.Train)
		return &GuidedResult{Kept: samples}, err
	}

	warmCfg := cfg.Train
	warmCfg.Epochs = warmup(cfg.Train.Epochs)
	if _, err := Regression(m, samples, sc, warmCfg); err != nil {
		return nil, err
	}

	errs := AbsErrors(m, samples, sc)
	threshold := Percentile(errs, cfg.Percentile)
	res := &GuidedResult{}
	for i, s := range samples {
		if errs[i] > threshold {
			res.Outliers = append(res.Outliers, s)
		} else {
			res.Kept = append(res.Kept, s)
		}
	}
	if len(res.Kept) == 0 {
		// Degenerate distribution: everything is an outlier; the hybrid
		// falls back to the auxiliary structure (§6 "worst case").
		return res, nil
	}
	if rest := cfg.Train.Epochs - warmCfg.Epochs; rest > 0 {
		contCfg := cfg.Train
		contCfg.Epochs = rest
		if _, err := Regression(m, res.Kept, sc, contCfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// AbsErrors returns |estimate − target| in raw (unscaled) space for every
// sample — the eviction criterion and the error-bound input of Algorithm 2.
func AbsErrors(m *deepsets.Model, samples []dataset.Sample, sc Scaler) []float64 {
	return sampleErrors(m, samples, sc, func(est, target float64) float64 { return math.Abs(est - target) })
}

// QErrors returns the per-sample q-error metric in raw space.
func QErrors(m *deepsets.Model, samples []dataset.Sample, sc Scaler) []float64 {
	return sampleErrors(m, samples, sc, qError)
}

// evalChunk is how many samples sampleErrors predicts per PredictBatch
// call. The batch's row memo computes each distinct element id's row once
// per chunk, and holds at most the chunk's distinct ids, whatever the
// vocabulary.
const evalChunk = 4096

// sampleErrors predicts every sample in chunks of evalChunk and returns
// errf(estimate, target) for each, the estimate unscaled to raw space.
// PredictBatch returns the same bits as one Predict per sample.
func sampleErrors(m *deepsets.Model, samples []dataset.Sample, sc Scaler, errf func(est, target float64) float64) []float64 {
	p := m.NewPredictor()
	out := make([]float64, len(samples))
	qs := make([]sets.Set, 0, min(len(samples), evalChunk))
	var est []float64
	for start := 0; start < len(samples); start += evalChunk {
		chunk := samples[start:min(start+evalChunk, len(samples))]
		qs = qs[:0]
		for _, s := range chunk {
			qs = append(qs, s.Set)
		}
		est = p.PredictBatch(est, qs)
		for i, s := range chunk {
			out[start+i] = errf(sc.Unscale(est[i]), s.Target)
		}
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
// error to always reach a q-error in the range [1, 1.4]"), or until half of
// the data has been evicted.
type AutoGuidedConfig struct {
	Train        Config
	TargetQError float64 // stop once mean kept q-error ≤ this (default 1.4)
}

// AutoGuided's eviction schedule: after the warm-up, each round evicts the
// worst autoEvictPercent of the kept samples and trains autoEpochsPerRound
// more epochs, for at most autoRoundLimit rounds. autoEvictCap caps the
// evicted share of all samples, which balances aux memory against accuracy.
const (
	autoEvictPercent   = 10
	autoEvictCap       = 0.5
	autoEpochsPerRound = 3
	autoRoundLimit     = 10
)

// AutoGuided trains m, evicting outliers round by round until the kept
// q-error reaches the target or the eviction budget is spent. In the best
// case the result is a model with the prespecified error; in the worst
// case the structure approaches the paper's auxiliary-only fallback.
func AutoGuided(m *deepsets.Model, samples []dataset.Sample, sc Scaler, cfg AutoGuidedConfig) (*GuidedResult, error) {
	if err := cfg.Train.Validate(); err != nil {
		return nil, err
	}
	cfg.Train.applyDefaults()
	if cfg.TargetQError == 0 {
		cfg.TargetQError = 1.4
	}
	if cfg.TargetQError < 1 {
		return nil, fmt.Errorf("train: target q-error %v below 1", cfg.TargetQError)
	}
	res := &GuidedResult{Kept: samples}

	warmCfg := cfg.Train
	warmCfg.Epochs = warmup(cfg.Train.Epochs)
	if _, err := Regression(m, res.Kept, sc, warmCfg); err != nil {
		return nil, err
	}

	maxEvict := int(autoEvictCap * float64(len(samples)))
	for round := 0; round < autoRoundLimit; round++ {
		qs := QErrors(m, res.Kept, sc)
		if Mean(qs) <= cfg.TargetQError {
			break
		}
		if len(res.Outliers) >= maxEvict {
			break
		}
		threshold := Percentile(qs, 100-autoEvictPercent)
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
		roundCfg.Epochs = autoEpochsPerRound
		if _, err := Regression(m, res.Kept, sc, roundCfg); err != nil {
			return nil, err
		}
	}
	return res, nil
}
