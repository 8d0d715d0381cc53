// Package hybrid implements the paper's hybrid structure with error bounds
// (§6, Figure 5, Algorithm 2): a learned model answering for the easy bulk
// of the data, an auxiliary exact structure holding evicted outliers (and
// later updates, §7.2), and per-range local error bounds that confine the
// sequential search of the index task to a small window.
package hybrid

import (
	"fmt"
	"sync"

	"setlearn/internal/bptree"
	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// Index is the hybrid learned set index. Queries are safe for concurrent
// use: the model, scaler, error bounds and signature column are read-only
// after build, the predictor pool hands each goroutine its own scratch, and
// the auxiliary structure (the only state InsertOutlier mutates) is guarded
// by auxMu.
type Index struct {
	collection *sets.Collection
	// sigs[i] is sets.Signature of the collection's set i, for the sets
	// present at build or load. It lives here rather than in the collection
	// because callers append to Collection.Sets directly (§7.2 updates);
	// positions at or past len(sigs) are scanned without it.
	sigs []uint64

	model  *deepsets.Model
	scaler train.Scaler
	pred   *deepsets.PredictorPool

	auxMu sync.RWMutex
	aux   *bptree.Tree // outlier subsets: permutation-invariant hash → first position

	rangeLen int
	errors   []int // per-range max |est − truth| over kept training samples
	maxErr   int   // global bound, for the local-vs-global comparison (§8.3.3)
}

// IndexConfig tunes index construction.
type IndexConfig struct {
	// RangeLen is the width (in positions) of each local error range; the
	// paper uses 100 (§8.3.2). Smaller ranges mean tighter bounds and more
	// memory.
	RangeLen int
	// AuxOrder is the B+ tree order for the outlier structure.
	AuxOrder int
}

func (c *IndexConfig) applyDefaults() {
	if c.RangeLen == 0 {
		c.RangeLen = 100
	}
	if c.AuxOrder == 0 {
		c.AuxOrder = bptree.DefaultOrder
	}
}

// BuildIndex assembles the hybrid index from a guided-training result: the
// model answers for kept samples within per-range error bounds; outliers go
// to the auxiliary B+ tree.
func BuildIndex(c *sets.Collection, m *deepsets.Model, sc train.Scaler, res *train.GuidedResult, cfg IndexConfig) (*Index, error) {
	cfg.applyDefaults()
	if c.Len() == 0 {
		return nil, fmt.Errorf("hybrid: empty collection")
	}
	idx := &Index{
		collection: c,
		sigs:       sigColumn(c),
		model:      m,
		scaler:     sc,
		pred:       m.NewPredictorPool(),
		aux:        bptree.New(cfg.AuxOrder),
		rangeLen:   cfg.RangeLen,
		errors:     make([]int, (c.Len()+cfg.RangeLen-1)/cfg.RangeLen),
	}
	for _, s := range res.Outliers {
		idx.aux.Insert(s.Set.Hash(), uint32(s.Target))
	}
	for _, s := range res.Kept {
		est := idx.estimatePos(s.Set)
		diff := est - int(s.Target)
		if diff < 0 {
			diff = -diff
		}
		r := idx.rangeOf(est)
		if diff > idx.errors[r] {
			idx.errors[r] = diff
		}
		if diff > idx.maxErr {
			idx.maxErr = diff
		}
	}
	return idx, nil
}

// sigColumn returns sets.Signature of every set in c, in order.
func sigColumn(c *sets.Collection) []uint64 {
	sigs := make([]uint64, c.Len())
	for i, s := range c.Sets {
		sigs[i] = sets.Signature(s)
	}
	return sigs
}

func (idx *Index) rangeOf(pos int) int {
	if pos < 0 {
		pos = 0
	}
	r := pos / idx.rangeLen
	if r >= len(idx.errors) {
		r = len(idx.errors) - 1
	}
	return r
}

// inVocab reports whether every element of q is representable by the model.
// Out-of-vocabulary elements cannot occur in the indexed collection, so such
// queries are resolved without consulting the model.
func inVocab(m *deepsets.Model, q sets.Set) bool {
	return len(q) == 0 || q[len(q)-1] <= m.Config().MaxID
}

// estimatePos runs the model and maps the output to an integer position.
func (idx *Index) estimatePos(q sets.Set) int {
	return idx.clampPos(idx.scaler.Unscale(idx.pred.Predict(q)))
}

// RemeasureBounds remeasures the per-range error bounds over samples
// (ground-truth first positions for the trained subsets, as produced by
// IndexSamples), mirroring the BuildIndex measurement: samples answered by
// the auxiliary structure or out-of-vocabulary are skipped, exactly the
// ones the model path never serves. Bounds are read lock-free by queries,
// so this must run before the index serves traffic (fresh build or load),
// never on a live structure.
func (idx *Index) RemeasureBounds(samples []dataset.Sample) {
	for i := range idx.errors {
		idx.errors[i] = 0
	}
	idx.maxErr = 0
	for _, s := range samples {
		if _, done := idx.auxAnswer(s.Set, false); done {
			continue
		}
		if !inVocab(idx.model, s.Set) {
			continue
		}
		est := idx.estimatePos(s.Set)
		diff := est - int(s.Target)
		if diff < 0 {
			diff = -diff
		}
		if r := idx.rangeOf(est); diff > idx.errors[r] {
			idx.errors[r] = diff
		}
		if diff > idx.maxErr {
			idx.maxErr = diff
		}
	}
}

// clampPos rounds an unscaled model output to a valid collection position.
func (idx *Index) clampPos(unscaled float64) int {
	est := int(unscaled + 0.5)
	if est < 0 {
		est = 0
	}
	if est >= idx.collection.Len() {
		est = idx.collection.Len() - 1
	}
	return est
}

// auxGet reads the auxiliary structure under the read lock. The returned
// slice is shared with the tree and must not be mutated by callers.
func (idx *Index) auxGet(key uint64) ([]uint32, bool) {
	idx.auxMu.RLock()
	vals, ok := idx.aux.Get(key)
	idx.auxMu.RUnlock()
	return vals, ok
}

// auxAnswer consults the auxiliary structure and verifies candidates
// against the collection: distinct sets could collide on the 64-bit hash,
// and the paper's aux stores exact first positions. done is false when the
// model path must decide.
func (idx *Index) auxAnswer(q sets.Set, equal bool) (pos int, done bool) {
	vals, ok := idx.auxGet(q.Hash())
	if !ok {
		return 0, false
	}
	for _, p := range vals {
		s := idx.collection.At(int(p))
		if equal {
			if s.Equal(q) {
				return int(p), true
			}
		} else if s.ContainsAll(q) {
			return int(p), true
		}
	}
	return 0, false
}

// scanFromEstimate resolves a model position estimate into the final answer:
// a bounded window scan for subset search, or the Algorithm 2 left-bounded
// equality scan.
func (idx *Index) scanFromEstimate(q sets.Set, est int, equal bool) int {
	e := idx.errors[idx.rangeOf(est)]
	hi := est + e
	if equal {
		hi = idx.collection.Len() - 1
	}
	return idx.firstInRange(q, est-e, hi, equal)
}

// firstInRange returns the first position i in [lo, hi], clamped to the
// collection, whose set contains q (equals q, when equal is set), or -1.
// Where position i has a signature it runs the exact merge only if sigs[i]
// covers Signature(q) (equals it, for equality); that skips most positions
// at the cost of one word test and never skips a hit (see sets.Signature).
// Positions appended after build or load take the plain merge. q must be
// non-empty: Signature(∅) = 0 covers every set.
func (idx *Index) firstInRange(q sets.Set, lo, hi int, equal bool) int {
	ss := idx.collection.Sets
	lo, hi = max(lo, 0), min(hi, len(ss)-1)
	qs := sets.Signature(q)
	if end := min(hi+1, len(idx.sigs)); lo < end {
		if equal {
			for j, s := range idx.sigs[lo:end] {
				if s == qs && ss[lo+j].Equal(q) {
					return lo + j
				}
			}
		} else {
			for j, s := range idx.sigs[lo:end] {
				if s&qs == qs && ss[lo+j].ContainsAll(q) {
					return lo + j
				}
			}
		}
	}
	for i := max(lo, len(idx.sigs)); i <= hi; i++ {
		if (equal && ss[i].Equal(q)) || (!equal && ss[i].ContainsAll(q)) {
			return i
		}
	}
	return -1
}

// Lookup implements Algorithm 2: consult the auxiliary structure first,
// otherwise predict a position and scan the window bounded by the local
// error of the predicted range. It returns the first position i with
// q ⊆ S[i], or -1 if the query is empty or not found within the bounds.
func (idx *Index) Lookup(q sets.Set) int {
	if len(q) == 0 {
		return -1
	}
	if pos, done := idx.auxAnswer(q, false); done {
		return pos
	}
	if !inVocab(idx.model, q) {
		return -1
	}
	return idx.scanFromEstimate(q, idx.estimatePos(q), false)
}

// LookupBatch resolves every query in qs, writing the first matching
// position (or -1) into dst, which is grown as needed and returned. equal
// selects the §4.1 equality search. All model predictions for the batch run
// through one pooled predictor via PredictBatch, so repeated element ids are
// memoized and ρ scratch is shared; answers are identical to per-query
// Lookup/LookupEqual.
func (idx *Index) LookupBatch(dst []int, qs []sets.Set, equal bool) []int {
	if cap(dst) < len(qs) {
		dst = make([]int, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	need := make([]sets.Set, 0, len(qs))
	needAt := make([]int, 0, len(qs))
	for i, q := range qs {
		if len(q) == 0 {
			dst[i] = -1
			continue
		}
		if pos, done := idx.auxAnswer(q, equal); done {
			dst[i] = pos
			continue
		}
		if !inVocab(idx.model, q) {
			dst[i] = -1
			continue
		}
		need = append(need, q)
		needAt = append(needAt, i)
	}
	if len(need) == 0 {
		return dst
	}
	outs := idx.pred.PredictBatch(nil, need)
	for j, q := range need {
		est := idx.clampPos(idx.scaler.Unscale(outs[j]))
		dst[needAt[j]] = idx.scanFromEstimate(q, est, equal)
	}
	return dst
}

// LookupEqual implements the §4.1 equality search: the first position i
// with S[i] exactly equal to q. The search starts from the left bound of
// the same error window as Lookup ("the equality search for the first
// position starts from the left position", Algorithm 2). The error bound
// covers q's first *subset* occurrence, which precedes or equals its first
// exact occurrence; when a proper superset shadows the exact match beyond
// the window, the scan continues rightward, trading the latency bound for
// correctness on that rare path. An empty query returns -1.
func (idx *Index) LookupEqual(q sets.Set) int {
	if len(q) == 0 {
		return -1
	}
	if pos, done := idx.auxAnswer(q, true); done {
		return pos
	}
	if !inVocab(idx.model, q) {
		return -1
	}
	return idx.scanFromEstimate(q, idx.estimatePos(q), true)
}

// LookupGlobalBound is Lookup using the single global error bound instead of
// the per-range bounds — the baseline of the §8.3.3 comparison.
func (idx *Index) LookupGlobalBound(q sets.Set) int {
	if len(q) == 0 {
		return -1
	}
	if pos, done := idx.auxAnswer(q, false); done {
		return pos
	}
	if !inVocab(idx.model, q) {
		return -1
	}
	est := idx.estimatePos(q)
	return idx.firstInRange(q, est-idx.maxErr, est+idx.maxErr, false)
}

// WindowSize returns the number of positions the subset scan for q can
// examine, its error window clamped to the collection — the cost proxy
// reported in the local-vs-global experiment. It is 0 for an empty or
// out-of-vocabulary query, which never reaches the scan.
func (idx *Index) WindowSize(q sets.Set) int {
	if len(q) == 0 || !inVocab(idx.model, q) {
		return 0
	}
	est := idx.estimatePos(q)
	e := idx.errors[idx.rangeOf(est)]
	return min(idx.collection.Len()-1, est+e) - max(0, est-e) + 1
}

// Model returns the underlying learned model, e.g. to attach a φ
// acceleration structure after build or load.
func (idx *Index) Model() *deepsets.Model { return idx.model }

// MaxError returns the global maximum absolute position error.
func (idx *Index) MaxError() int { return idx.maxErr }

// MeanLocalError averages the per-range error bounds.
func (idx *Index) MeanLocalError() float64 {
	if len(idx.errors) == 0 {
		return 0
	}
	var s float64
	for _, e := range idx.errors {
		s += float64(e)
	}
	return s / float64(len(idx.errors))
}

// InsertOutlier registers an updated or new subset position in the
// auxiliary structure without retraining (§7.2): queries consult the aux
// first, so it immediately overrides the model.
func (idx *Index) InsertOutlier(q sets.Set, pos int) {
	idx.auxMu.Lock()
	idx.aux.Insert(q.Hash(), uint32(pos))
	idx.auxMu.Unlock()
}

// AuxLen returns the number of entries in the auxiliary structure.
func (idx *Index) AuxLen() int {
	idx.auxMu.RLock()
	defer idx.auxMu.RUnlock()
	return idx.aux.Len()
}

// MemoryBreakdown reports the component sizes in bytes: model, auxiliary
// structure, and error list — the three columns of Table 7.
func (idx *Index) MemoryBreakdown() (model, aux, errs int) {
	idx.auxMu.RLock()
	auxBytes := idx.aux.SizeBytes()
	idx.auxMu.RUnlock()
	return idx.model.SizeBytes(), auxBytes, 8 * len(idx.errors)
}

// SizeBytes returns the total structure footprint: the Table 7 breakdown
// plus the signature column.
func (idx *Index) SizeBytes() int {
	m, a, e := idx.MemoryBreakdown()
	return m + a + e + 8*len(idx.sigs)
}

// Estimator is the hybrid cardinality estimator: exact answers for evicted
// outliers from a hash map, model estimates for everything else. Estimate
// is safe for concurrent use; the auxiliary map (the only state
// InsertOutlier mutates) is guarded by auxMu.
type Estimator struct {
	model  *deepsets.Model
	scaler train.Scaler
	pred   *deepsets.PredictorPool

	auxMu sync.RWMutex
	aux   map[string]float64 // outlier subset key → exact cardinality
}

// BuildEstimator assembles the hybrid estimator from a guided-training
// result.
func BuildEstimator(m *deepsets.Model, sc train.Scaler, res *train.GuidedResult) *Estimator {
	e := &Estimator{
		model:  m,
		scaler: sc,
		pred:   m.NewPredictorPool(),
		aux:    make(map[string]float64, len(res.Outliers)),
	}
	for _, s := range res.Outliers {
		e.aux[s.Set.Key()] = s.Target
	}
	return e
}

// Estimate returns the cardinality estimate for q: exact if q was evicted
// as an outlier, the model's prediction otherwise (§6: "querying for
// cardinality … requires only the prediction of the model"). An empty
// query returns 0.
func (e *Estimator) Estimate(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	e.auxMu.RLock()
	card, ok := e.aux[q.Key()]
	e.auxMu.RUnlock()
	if ok {
		return card
	}
	if !inVocab(e.model, q) {
		return 0 // out-of-vocabulary elements cannot occur in the collection
	}
	return e.finish(e.scaler.Unscale(e.pred.Predict(q)))
}

// finish maps a raw unscaled model output to the served estimate, floored
// at 1: a trained subset occurs at least once.
func (e *Estimator) finish(raw float64) float64 {
	if raw < 1 {
		return 1
	}
	return raw
}

// EstimateBatch answers every query in qs, writing estimates into dst
// (grown as needed) and returning it. Queries not short-circuited by the
// auxiliary map run through one pooled predictor via PredictBatch; answers
// are identical to per-query Estimate.
func (e *Estimator) EstimateBatch(dst []float64, qs []sets.Set) []float64 {
	if cap(dst) < len(qs) {
		dst = make([]float64, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	need := make([]sets.Set, 0, len(qs))
	needAt := make([]int, 0, len(qs))
	for i, q := range qs {
		if len(q) == 0 {
			dst[i] = 0
			continue
		}
		e.auxMu.RLock()
		card, ok := e.aux[q.Key()]
		e.auxMu.RUnlock()
		if ok {
			dst[i] = card
			continue
		}
		if !inVocab(e.model, q) {
			dst[i] = 0
			continue
		}
		need = append(need, q)
		needAt = append(needAt, i)
	}
	if len(need) == 0 {
		return dst
	}
	outs := e.pred.PredictBatch(nil, need)
	for j := range need {
		dst[needAt[j]] = e.finish(e.scaler.Unscale(outs[j]))
	}
	return dst
}

// Model returns the underlying learned model, e.g. to attach a φ
// acceleration structure after build or load.
func (e *Estimator) Model() *deepsets.Model { return e.model }

// InsertOutlier records an exact cardinality for q in the auxiliary map.
func (e *Estimator) InsertOutlier(q sets.Set, card float64) {
	e.auxMu.Lock()
	e.aux[q.Key()] = card
	e.auxMu.Unlock()
}

// AuxLen returns the number of outliers held by the auxiliary map.
func (e *Estimator) AuxLen() int {
	e.auxMu.RLock()
	defer e.auxMu.RUnlock()
	return len(e.aux)
}

// SizeBytes returns the estimator footprint: model plus an estimate of the
// auxiliary map (per-entry key bytes, value, and Go map overhead).
func (e *Estimator) SizeBytes() int {
	e.auxMu.RLock()
	defer e.auxMu.RUnlock()
	total := e.model.SizeBytes()
	for k := range e.aux {
		total += len(k) + 8 + mapEntryOverhead
	}
	return total
}

// mapEntryOverhead approximates Go's per-entry map cost (bucket slot, key
// header, padding).
const mapEntryOverhead = 32

// EstimateSamples is a convenience that returns q-errors of the estimator
// against ground-truth samples.
func (e *Estimator) EstimateSamples(samples []dataset.Sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		est := e.Estimate(s.Set)
		truth := s.Target
		if est < 1 {
			est = 1
		}
		if truth < 1 {
			truth = 1
		}
		if est > truth {
			out[i] = est / truth
		} else {
			out[i] = truth / est
		}
	}
	return out
}
