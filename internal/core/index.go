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

// IndexOptions configures BuildIndex.
type IndexOptions struct {
	Model ModelOptions
	// MaxSubset caps the size of enumerated training subsets; the index
	// guarantees exact answers only for queries up to this size (§7.1.1
	// applies the same cap at size 6 by the infrequency argument).
	MaxSubset int
	// Percentile is the guided-learning eviction threshold (§6); e.g. 90
	// evicts the hardest 10% of subsets into the auxiliary structure.
	// 0 disables eviction ("No Removal").
	Percentile float64
	// TargetQError, when > 0, switches to the automatic threshold setting
	// of §6: eviction rounds continue until the kept mean q-error reaches
	// this target (the paper uses the [1, 1.4] range for indexing).
	// Overrides Percentile.
	TargetQError float64
	// RangeLen is the local-error range width of Algorithm 2 (default 100).
	RangeLen int
}

// SetIndex answers "first position where q appears as a subset" over an
// unordered collection, backed by the hybrid learned structure. Sets
// appended after build land in an exact delta composed into every lookup,
// so the index stays correct under live mutation without retraining (the
// monolithic delta is never retrained away; the sharded container in
// internal/shard owns the background-retrain path).
type SetIndex struct {
	hybrid    *hybrid.Index
	maxSubset int
	delta     *hybrid.Delta
	nextPos   atomic.Int64 // next global position handed to InsertSet
}

// BuildIndex trains a learned set index over c. The collection is captured
// by reference; it must not be mutated afterwards except through Insert.
func BuildIndex(c *sets.Collection, opts IndexOptions) (*SetIndex, error) {
	if err := validateBuild(c, opts.MaxSubset, opts.Model); err != nil {
		return nil, err
	}
	if opts.MaxSubset == 0 {
		opts.MaxSubset = 3
	}
	// Full sets are always included so equality queries work for sets
	// larger than the subset cap (§4.1 supports both search types).
	st := dataset.CollectSubsetsWithFull(c, opts.MaxSubset)
	samples := st.IndexSamples()
	sc := train.FitScaler(samples)

	m, err := deepsets.New(opts.Model.modelConfig(c.MaxID()))
	if err != nil {
		return nil, fmt.Errorf("core: build index model: %w", err)
	}
	var res *train.GuidedResult
	if opts.TargetQError > 0 {
		res, err = train.AutoGuided(m, samples, sc, train.AutoGuidedConfig{
			Train:        opts.Model.trainConfig(),
			TargetQError: opts.TargetQError,
		})
	} else {
		res, err = train.Guided(m, samples, sc, train.GuidedConfig{
			Train:      opts.Model.trainConfig(),
			Percentile: opts.Percentile,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("core: train index model: %w", err)
	}
	serveModel(m)
	h, err := hybrid.BuildIndex(c, m, sc, res, hybrid.IndexConfig{RangeLen: opts.RangeLen})
	if err != nil {
		return nil, err
	}
	idx := &SetIndex{hybrid: h, maxSubset: opts.MaxSubset, delta: hybrid.NewDelta()}
	idx.nextPos.Store(int64(c.Len()))
	return idx, nil
}

// composeLookup folds the exact delta answer into the learned answer by
// taking the smallest non-negative position.
func composeLookup(learned, delta int) int {
	if delta >= 0 && (learned < 0 || delta < learned) {
		return delta
	}
	return learned
}

// Lookup returns the first position i with q ⊆ S[i], or -1 if q is not a
// subset of any set (exact for queries within the trained subset-size cap).
func (i *SetIndex) Lookup(q sets.Set) int {
	if len(q) == 0 {
		return -1
	}
	return composeLookup(i.hybrid.Lookup(q), i.delta.FirstPos(q, false))
}

// LookupEqual returns the first position whose set is exactly q, or -1 —
// the equality search type of §4.1.
func (i *SetIndex) LookupEqual(q sets.Set) int {
	if len(q) == 0 {
		return -1
	}
	return composeLookup(i.hybrid.LookupEqual(q), i.delta.FirstPos(q, true))
}

// LookupBatch answers every query in qs, writing first positions (or -1)
// into dst, which is grown as needed and returned. equal selects the §4.1
// equality search. Model evaluations for the whole batch share one pooled
// predictor, amortizing φ lookups and ρ scratch; answers match per-query
// Lookup/LookupEqual exactly.
func (i *SetIndex) LookupBatch(dst []int, qs []sets.Set, equal bool) []int {
	dst = i.hybrid.LookupBatch(dst, qs, equal)
	if i.delta.Len() > 0 {
		for j, q := range qs {
			dst[j] = composeLookup(dst[j], i.delta.FirstPos(q, equal))
		}
	}
	return dst
}

// Insert registers a new set appended to the collection at position pos: the
// set's subsets are routed to the auxiliary structure without retraining
// (§7.2).
func (i *SetIndex) Insert(s sets.Set, pos int) {
	sets.Subsets(s, i.maxSubset, func(sub sets.Set) {
		if i.hybrid.Lookup(sub) < 0 {
			i.hybrid.InsertOutlier(sub, pos)
		}
	})
}

// InsertSet appends s to the logical collection, assigning it the next
// global position and recording it in the exact delta: lookups answer for
// it the instant this returns. Each lookup then pays one signature test per
// pending entry, plus an exact merge for entries whose signature covers the
// query's (see hybrid.Delta).
func (i *SetIndex) InsertSet(s sets.Set) int {
	pos := int(i.nextPos.Add(1)) - 1
	i.delta.Add(s, pos) // the delta copies s into its arena
	return pos
}

// DeltaStats reports the pending-insert state of the exact delta.
func (i *SetIndex) DeltaStats() DeltaStats {
	n := i.delta.Len()
	return DeltaStats{Pending: n, PerShard: []int{n}, OldestSecs: i.delta.Age().Seconds()}
}

// MaxSubset returns the trained subset-size cap.
func (i *SetIndex) MaxSubset() int { return i.maxSubset }

// SizeBytes returns the total structure footprint.
func (i *SetIndex) SizeBytes() int { return i.hybrid.SizeBytes() + i.delta.SizeBytes() }

// MemoryBreakdown reports model, auxiliary-structure, and error-list bytes
// (Table 7's columns).
func (i *SetIndex) MemoryBreakdown() (model, aux, errs int) { return i.hybrid.MemoryBreakdown() }

// MaxError returns the global position-error bound of the model.
func (i *SetIndex) MaxError() int { return i.hybrid.MaxError() }

// Hybrid exposes the underlying hybrid structure for benchmarking.
func (i *SetIndex) Hybrid() *hybrid.Index { return i.hybrid }

// RemeasureBounds remeasures the error bounds over samples; must run
// before the index serves queries.
func (i *SetIndex) RemeasureBounds(samples []dataset.Sample) { i.hybrid.RemeasureBounds(samples) }
