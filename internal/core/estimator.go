package core

import (
	"fmt"
	"sync/atomic"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// EstimatorOptions configures BuildEstimator.
type EstimatorOptions struct {
	Model ModelOptions
	// MaxSubset caps the size of enumerated training subsets (default 3).
	MaxSubset int
	// Percentile is the guided-learning eviction threshold; the paper's
	// cardinality experiments use 90 (§8.2.1). 0 disables the hybrid.
	Percentile float64
}

// CardinalityEstimator estimates |{i : q ⊆ S[i]}| for query subsets. Sets
// appended after build land in an exact delta whose containment counts are
// added to every estimate, so counts involving fresh sets are exact
// immediately.
type CardinalityEstimator struct {
	hybrid    *hybrid.Estimator
	maxSubset int
	delta     *hybrid.Delta
	nextPos   atomic.Int64
}

// BuildEstimator trains a learned cardinality estimator over c.
func BuildEstimator(c *sets.Collection, opts EstimatorOptions) (*CardinalityEstimator, error) {
	if err := validateBuild(c, opts.MaxSubset); err != nil {
		return nil, err
	}
	if opts.MaxSubset == 0 {
		opts.MaxSubset = 3
	}
	st := dataset.CollectSubsets(c, opts.MaxSubset)
	samples := st.CardinalitySamples()
	sc := train.FitScaler(samples)

	m, err := deepsets.New(opts.Model.modelConfig(c.MaxID()))
	if err != nil {
		return nil, fmt.Errorf("core: build estimator model: %w", err)
	}
	res, err := train.Guided(m, samples, sc, train.GuidedConfig{
		Train:      opts.Model.trainConfig(),
		Percentile: opts.Percentile,
	})
	if err != nil {
		return nil, fmt.Errorf("core: train estimator model: %w", err)
	}
	enableFastPath(m, DefaultFastPath)
	est := &CardinalityEstimator{
		hybrid:    hybrid.BuildEstimator(m, sc, res),
		maxSubset: opts.MaxSubset,
		delta:     hybrid.NewDelta(),
	}
	est.nextPos.Store(int64(c.Len()))
	return est, nil
}

// Estimate returns the estimated number of sets containing q. Estimates are
// floored at 1 for in-vocabulary queries (the q-error convention); queries
// containing unknown elements return 0.
func (e *CardinalityEstimator) Estimate(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	return e.hybrid.Estimate(q) + e.delta.Count(q)
}

// EstimateBatch answers every query in qs, writing estimates into dst
// (grown as needed) and returning it. Model evaluations share one pooled
// predictor; answers match per-query Estimate exactly.
func (e *CardinalityEstimator) EstimateBatch(dst []float64, qs []sets.Set) []float64 {
	dst = e.hybrid.EstimateBatch(dst, qs)
	if e.delta.Len() > 0 {
		for j, q := range qs {
			if len(q) > 0 {
				dst[j] += e.delta.Count(q)
			}
		}
	}
	return dst
}

// Update records an exact cardinality for a subset whose count changed; it
// is served from the auxiliary structure thereafter (§7.2). The stored
// override is reduced by the delta's current contribution so the composed
// Estimate equals card now and keeps tracking future inserts exactly.
func (e *CardinalityEstimator) Update(q sets.Set, card float64) {
	e.hybrid.InsertOutlier(q, card-e.delta.Count(q))
}

// InsertSet appends s to the logical collection: every estimate whose query
// is contained in s is one higher the instant this returns.
func (e *CardinalityEstimator) InsertSet(s sets.Set) int {
	pos := int(e.nextPos.Add(1)) - 1
	e.delta.Add(s, pos) // the delta copies s into its arena
	return pos
}

// DeltaStats reports the pending-insert state of the exact delta.
func (e *CardinalityEstimator) DeltaStats() DeltaStats {
	n := e.delta.Len()
	return DeltaStats{Pending: n, PerShard: []int{n}, OldestSecs: e.delta.Age().Seconds()}
}

// MaxSubset returns the trained subset-size cap.
func (e *CardinalityEstimator) MaxSubset() int { return e.maxSubset }

// SizeBytes returns the estimator footprint (model + auxiliary map + delta).
func (e *CardinalityEstimator) SizeBytes() int { return e.hybrid.SizeBytes() + e.delta.SizeBytes() }

// Hybrid exposes the underlying hybrid estimator for benchmarking.
func (e *CardinalityEstimator) Hybrid() *hybrid.Estimator { return e.hybrid }
