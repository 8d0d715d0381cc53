package shard

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

var estKind = &kind[*core.CardinalityEstimator, core.EstimatorOptions]{
	name:  "card",
	build: core.BuildEstimator,
	load: func(r io.Reader, _ *sets.Collection) (*core.CardinalityEstimator, error) {
		return core.LoadCardinalityEstimator(r)
	},
	fields: func(o *core.EstimatorOptions) (*core.ModelOptions, *int) { return &o.Model, &o.MaxSubset },
	opts:   func(h *containerHeader) **core.EstimatorOptions { return &h.EstOpts },
}

// auxOverride is one exact-cardinality override recorded by Update. The
// decoded set rides along so a retrain can fold the counts of absorbed
// inserts into the stored value, keeping the composed answer exact.
type auxOverride struct {
	set  sets.Set
	card float64
}

// Estimator is a K-way partitioned CardinalityEstimator. Every set lives in
// exactly one shard, so the true global cardinality of a query decomposes as
// the sum of per-shard cardinalities — the fan-in is a plain sum of shard
// estimates plus each shard's exact delta count. Update cannot be
// decomposed the same way (a global count says nothing about its per-shard
// split), so exact overrides live in a container-level auxiliary map
// consulted before the fan-out, mirroring the monolith's outlier list.
type Estimator struct {
	container[*core.CardinalityEstimator, core.EstimatorOptions]

	// auxMu guards aux and bounds. A retrain folds absorbed-insert counts
	// into the overrides under the write lock in the same critical section
	// as the state swap, so an override reader (who holds the read lock
	// across the override + delta-count composition) never sees the swap
	// half-applied. Lock order: retrainMu → insertMu → auxMu.
	auxMu  sync.RWMutex
	aux    map[string]auxOverride // query key → exact override (Update)
	bounds []float64              // per-shard measured error bounds; nil unless measured, invalidated by retrain
}

var (
	_ core.CardinalityQuerier = (*Estimator)(nil)
	_ core.Inserter           = (*Estimator)(nil)
	_ core.ShardStatser       = (*Estimator)(nil)
	_ Retrainable             = (*Estimator)(nil)
)

// BuildShardedEstimator partitions c and builds one CardinalityEstimator
// per shard in parallel on a bounded worker pool. With o.MeasureBounds set,
// each shard's maximum absolute error over the global trained-subset
// workload is measured after its build; CombinedErrorBound then reports the
// sum, which bounds |fan-in estimate − truth| on that workload by the
// triangle inequality.
func BuildShardedEstimator(c *sets.Collection, o Options, opts core.EstimatorOptions) (*Estimator, error) {
	e := &Estimator{aux: make(map[string]auxOverride)}
	var finish func(int, *state[*core.CardinalityEstimator])
	if o.MeasureBounds {
		// The first shard to finish training collects the workload while
		// the others are still training.
		workload := sync.OnceValue(func() *dataset.SubsetStats { return dataset.CollectSubsets(c, e.maxSub) })
		finish = func(s int, st *state[*core.CardinalityEstimator]) {
			st.stat.ErrBound = measureShardBound(e.route, s, st.m, st.sub, workload(), e.maxSub)
		}
	}
	if err := e.build(estKind, c, o, opts, finish); err != nil {
		return nil, err
	}
	if o.MeasureBounds {
		e.bounds = make([]float64, e.k)
		for s := range e.bounds {
			e.bounds[s] = e.states[s].Load().stat.ErrBound
		}
	}
	return e, nil
}

// measureShardBound returns max over the global workload of
// |shard estimate − shard truth|, where shard truth is the query's
// cardinality within the shard's sub-collection (0 when absent). Because
// per-shard truths sum to the global cardinality for every workload query,
// these bounds compose additively across shards. Queries the router prunes
// for this shard are served as exact 0 — and pruning is sound (a pruned
// shard contains no superset of the query), so their error is exactly 0.
func measureShardBound(rt *router, s int, est *core.CardinalityEstimator, sub *sets.Collection, workload *dataset.SubsetStats, maxSubset int) float64 {
	local := dataset.CollectSubsets(sub, maxSubset)
	var bound float64
	for _, key := range workload.Keys {
		q := workload.ByKey[key].Set
		if rt.prunes(s, q) {
			continue
		}
		var truth float64
		if info, ok := local.ByKey[key]; ok {
			truth = float64(info.Card)
		}
		if d := math.Abs(est.Estimate(q) - truth); d > bound {
			bound = d
		}
	}
	return bound
}

// estimateShard returns one shard's contribution to the fan-in sum: the
// model estimate over the trained sets plus the exact count over the
// shard's pending delta. A shard the router prunes for q contributes its
// delta count only — the prune is exact, so the model's would-be estimate
// is replaced by the true trained-set cardinality, 0.
func (e *Estimator) estimateShard(st *state[*core.CardinalityEstimator], s int, q sets.Set) float64 {
	if e.hook != nil {
		e.hook(s)
	}
	e.queries[s].Add(1)
	total := st.delta.Count(q)
	if st.m != nil && !e.route.prunes(s, q) {
		total += st.m.Estimate(q)
	}
	return total
}

// deltaCount sums the exact pending-delta counts for q across all shards.
func (e *Estimator) deltaCount(q sets.Set) float64 {
	total := 0.0
	for s := 0; s < e.k; s++ {
		total += e.states[s].Load().delta.Count(q)
	}
	return total
}

// Estimate returns the estimated number of sets containing q: an exact
// override when one was recorded by Update (plus the exact count of later
// inserts containing q), otherwise the sum of per-shard estimates. Empty
// queries return 0, as in the monolith.
func (e *Estimator) Estimate(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	e.auxMu.RLock()
	if ov, ok := e.aux[q.Key()]; ok {
		total := ov.card + e.deltaCount(q)
		e.auxMu.RUnlock()
		return total
	}
	e.auxMu.RUnlock()
	total := 0.0
	for s := 0; s < e.k; s++ {
		total += e.estimateShard(e.states[s].Load(), s, q)
	}
	return total
}

// EstimateBatch answers every query in qs into dst (grown as needed,
// returned). Exact overrides and empty queries are answered up front; the
// rest fan out to every shard's fused batch path concurrently and fan in
// by summation, with each shard's delta count added on top.
func (e *Estimator) EstimateBatch(dst []float64, qs []sets.Set) []float64 {
	if cap(dst) < len(qs) {
		dst = make([]float64, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	if len(qs) == 0 {
		return dst
	}
	sts := e.snapshot()
	need := make([]sets.Set, 0, len(qs))
	needAt := make([]int, 0, len(qs))
	e.auxMu.RLock()
	for i, q := range qs {
		if len(q) == 0 {
			dst[i] = 0
			continue
		}
		if ov, ok := e.aux[q.Key()]; ok {
			total := ov.card
			for s := 0; s < e.k; s++ {
				total += sts[s].delta.Count(q)
			}
			dst[i] = total
			continue
		}
		need = append(need, q)
		needAt = append(needAt, i)
	}
	e.auxMu.RUnlock()
	if len(need) == 0 {
		return dst
	}
	// Pruned queries scatter as exact 0 contributions, so the fan-in sum
	// matches the single-query path bit for bit (x + 0.0 == x for the
	// non-negative estimates here).
	per := fanBatch(&e.container, sts, need, 0, func(m *core.CardinalityEstimator, qs []sets.Set) []float64 {
		return m.EstimateBatch(nil, qs)
	})
	hasDelta := make([]bool, e.k)
	for s := range sts {
		hasDelta[s] = sts[s].delta.Len() > 0
	}
	for j := range need {
		total := 0.0
		for s := 0; s < e.k; s++ {
			if per[s] != nil {
				total += per[s][j]
			}
			if hasDelta[s] {
				total += sts[s].delta.Count(need[j])
			}
		}
		dst[needAt[j]] = total
	}
	return dst
}

// Update records an exact cardinality for q, served from the container's
// auxiliary map thereafter (a global count has no canonical per-shard
// split, so it is not pushed down). The stored value is reduced by the
// deltas' current contribution — and retrains fold absorbed counts back in
// — so the composed Estimate equals card now and keeps tracking future
// inserts exactly. insertMu is held across the read-compose-write so no
// insert or retrain swap can slip between the delta count and the store.
func (e *Estimator) Update(q sets.Set, card float64) {
	q = q.Clone()
	e.insertMu.Lock()
	stored := card - e.deltaCount(q)
	e.auxMu.Lock()
	e.aux[q.Key()] = auxOverride{set: q, card: stored}
	e.auxMu.Unlock()
	e.insertMu.Unlock()
}

// CombinedErrorBound returns Σ per-shard measured bounds; ok is false when
// the build did not measure them, the container was loaded from disk
// without bounds, or a retrain invalidated them (the rebuilt shard model's
// error over the workload is no longer the measured one).
func (e *Estimator) CombinedErrorBound() (float64, bool) {
	e.auxMu.RLock()
	defer e.auxMu.RUnlock()
	if e.bounds == nil {
		return 0, false
	}
	total := 0.0
	for _, b := range e.bounds {
		total += b
	}
	return total, true
}

// SizeBytes sums the per-shard footprints, deltas, and the override map.
func (e *Estimator) SizeBytes() int {
	total := e.container.SizeBytes()
	e.auxMu.RLock()
	for k, ov := range e.aux {
		total += len(k) + 8 + 4*len(ov.set)
	}
	e.auxMu.RUnlock()
	return total
}

// RetrainShard rebuilds shard s's estimator over its trained sets plus the
// pending delta and hot-swaps it, folding the absorbed counts into any
// exact overrides so their composed answers do not move. Returns nil
// without building when the delta is empty. Requires the shard
// sub-collections (present after a build; a loaded estimator needs
// AttachCollection first).
func (e *Estimator) RetrainShard(s int) error {
	return e.retrain(s, func(next *state[*core.CardinalityEstimator], absorbed []hybrid.DeltaEntry) {
		// The swap and the override folding happen inside one auxMu
		// critical section: an override reader holds the read lock across
		// its override + delta-count composition, so it either sees (old
		// delta counts, old override values) or (tail counts, folded
		// values) — both exact.
		e.auxMu.Lock()
		e.states[s].Store(next)
		for key, ov := range e.aux {
			folded := 0.0
			for _, en := range absorbed {
				if en.Set.ContainsAll(ov.set) {
					folded++
				}
			}
			if folded > 0 {
				ov.card += folded
				e.aux[key] = ov
			}
		}
		// The rebuilt model's error over the measured workload is unknown.
		e.bounds = nil
		e.auxMu.Unlock()
	})
}

// Save persists the sharded estimator, including the container-level exact
// overrides (sorted for deterministic bytes), any measured bounds, and the
// live-mutation state.
func (e *Estimator) Save(w io.Writer) error {
	return e.save(w, func(hdr *containerHeader) {
		e.auxMu.RLock()
		hdr.Bounds = e.bounds
		hdr.AuxKeys = make([]string, 0, len(e.aux))
		for k := range e.aux {
			hdr.AuxKeys = append(hdr.AuxKeys, k)
		}
		sort.Strings(hdr.AuxKeys)
		hdr.AuxVals = make([]float64, len(hdr.AuxKeys))
		for i, k := range hdr.AuxKeys {
			hdr.AuxVals[i] = e.aux[k].card
		}
		e.auxMu.RUnlock()
	})
}

// LoadShardedEstimator restores an estimator saved by Save. The maximum
// accepted element id is recovered from the shard models; pending deltas
// are restored exactly. Retraining additionally needs AttachCollection. A
// stream from a calibrated build loads without its measured bounds, which
// were taken with the curves applied.
func LoadShardedEstimator(r io.Reader) (*Estimator, error) {
	hdr, err := readContainerHeader(r, estKind.name)
	if err != nil {
		return nil, err
	}
	if len(hdr.AuxKeys) != len(hdr.AuxVals) {
		return nil, fmt.Errorf("shard: header lists %d override keys for %d values", len(hdr.AuxKeys), len(hdr.AuxVals))
	}
	if hdr.Bounds != nil && len(hdr.Bounds) != hdr.Shards {
		return nil, fmt.Errorf("shard: header lists %d bounds for %d shards", len(hdr.Bounds), hdr.Shards)
	}
	calibrated, err := legacyCalibrated(hdr)
	if err != nil {
		return nil, err
	}
	if calibrated {
		hdr.Bounds = nil
	}
	e := &Estimator{aux: make(map[string]auxOverride, len(hdr.AuxKeys)), bounds: hdr.Bounds}
	for i, k := range hdr.AuxKeys {
		set, err := sets.FromKey(k)
		if err != nil {
			return nil, fmt.Errorf("shard: override %d: %w", i, err)
		}
		e.aux[k] = auxOverride{set: set, card: hdr.AuxVals[i]}
	}
	err = e.load(r, hdr, estKind, nil, func(s int, st *state[*core.CardinalityEstimator]) {
		if e.bounds != nil {
			st.stat.ErrBound = e.bounds[s]
		}
	})
	if err != nil {
		return nil, err
	}
	return e, nil
}
