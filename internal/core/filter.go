package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"setlearn/internal/bloom"
	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// FilterOptions configures BuildMembershipFilter.
type FilterOptions struct {
	Model ModelOptions
	// MaxSubset caps both the positive enumeration and the negative
	// sampling size (§7.1.2 restricts the learned BF to subsets up to a
	// predefined size to bound the negative space).
	MaxSubset int
	// NegPerPos is the ratio of sampled negative to positive training
	// subsets (default 1.0).
	NegPerPos float64
	// Threshold is the classification cut τ (default 0.5): probabilities
	// above it are answered positive by the model alone.
	Threshold float64
	// BackupFPRate sizes the backup Bloom filter holding the model's false
	// negatives (default 0.01).
	BackupFPRate float64
	// Sandwich adds an initial Bloom filter in front of the model
	// (Mitzenmacher's sandwiched learned Bloom filter, cited in §2): a
	// cheap pre-filter rejects most true negatives before they reach the
	// model, cutting both latency and the model's false-positive surface.
	Sandwich bool
	// SandwichFPRate sizes the pre-filter (default 0.3 — intentionally
	// loose, since the model and backup sit behind it).
	SandwichFPRate float64
}

// MembershipFilter is the learned set Bloom filter (§4.3): a DeepSets
// classifier in front of a small backup Bloom filter that stores the
// trained positives the model misclassifies, guaranteeing no false
// negatives for subsets within the trained size cap — the standard learned
// Bloom filter construction [Kraska et al.].
type MembershipFilter struct {
	model     *deepsets.Model
	pred      *deepsets.PredictorPool
	backup    *bloom.Filter
	pre       *bloom.Filter // optional sandwich pre-filter
	threshold float64
	maxSubset int
	delta     *hybrid.Delta // sets inserted after build; checked exactly
	nextPos   atomic.Int64
}

// BuildMembershipFilter trains a learned membership filter over c.
func BuildMembershipFilter(c *sets.Collection, opts FilterOptions) (*MembershipFilter, error) {
	if err := validateBuild(c, opts.MaxSubset); err != nil {
		return nil, err
	}
	if opts.MaxSubset == 0 {
		opts.MaxSubset = 3
	}
	if opts.NegPerPos == 0 {
		opts.NegPerPos = 1
	}
	if opts.Threshold == 0 {
		opts.Threshold = 0.5
	}
	if opts.BackupFPRate == 0 {
		opts.BackupFPRate = 0.01
	}
	if opts.SandwichFPRate == 0 {
		opts.SandwichFPRate = 0.3
	}

	st := dataset.CollectSubsets(c, opts.MaxSubset)
	md := st.MembershipSamples(c, opts.MaxSubset, opts.NegPerPos, opts.Model.Seed+7)

	m, err := deepsets.New(opts.Model.modelConfig(c.MaxID()))
	if err != nil {
		return nil, fmt.Errorf("core: build filter model: %w", err)
	}
	if _, err := train.Classification(m, md, opts.Model.trainConfig()); err != nil {
		return nil, fmt.Errorf("core: train filter model: %w", err)
	}

	f := &MembershipFilter{
		model:     m,
		pred:      m.NewPredictorPool(),
		threshold: opts.Threshold,
		maxSubset: opts.MaxSubset,
		delta:     hybrid.NewDelta(),
	}
	f.nextPos.Store(int64(c.Len()))
	if opts.Sandwich {
		f.pre = bloom.NewWithEstimates(uint64(len(md.Positive)), opts.SandwichFPRate)
		for _, s := range md.Positive {
			f.pre.Add(s.Hash())
		}
	}

	// Collect the model's false negatives among the trained positives and
	// store them in the backup filter — the construction that makes the
	// learned Bloom filter one-sided again.
	var falseNegatives []sets.Set
	for _, s := range md.Positive {
		if f.pred.Predict(s) <= f.threshold {
			falseNegatives = append(falseNegatives, s)
		}
	}
	n := uint64(len(falseNegatives))
	if n == 0 {
		n = 1
	}
	f.backup = bloom.NewWithEstimates(n, opts.BackupFPRate)
	for _, s := range falseNegatives {
		f.backup.Add(s.Hash())
	}
	enableFastPath(m, DefaultFastPath)
	return f, nil
}

// Contains reports whether q may be a subset of some set in the collection.
// No false negatives occur for subsets within the trained size cap; false
// positives occur at the combined model+backup rate.
func (f *MembershipFilter) Contains(q sets.Set) bool {
	if len(q) == 0 {
		return true // the empty set is a subset of everything
	}
	if f.delta.Contains(q) {
		return true // exact hit among sets inserted after build
	}
	if q[len(q)-1] > f.model.Config().MaxID {
		return false // unknown element: cannot occur in the trained bulk
	}
	if f.pre != nil && !f.pre.Contains(q.Hash()) {
		return false // sandwich pre-filter: definitely absent
	}
	if f.pred.Predict(q) > f.threshold {
		return true
	}
	return f.backup.Contains(q.Hash())
}

// ModelProbability exposes the raw classifier output for q.
func (f *MembershipFilter) ModelProbability(q sets.Set) float64 {
	if len(q) == 0 || q[len(q)-1] > f.model.Config().MaxID {
		return 0
	}
	return f.pred.Predict(q)
}

// InsertSet appends s to the logical collection: Contains answers true for
// every subset of s the instant this returns, with no false-negative risk
// (the delta check is exact, not probabilistic).
func (f *MembershipFilter) InsertSet(s sets.Set) int {
	pos := int(f.nextPos.Add(1)) - 1
	f.delta.Add(s, pos) // the delta copies s into its arena
	return pos
}

// DeltaStats reports the pending-insert state of the exact delta.
func (f *MembershipFilter) DeltaStats() DeltaStats {
	n := f.delta.Len()
	return DeltaStats{Pending: n, PerShard: []int{n}, OldestSecs: f.delta.Age().Seconds()}
}

// BackupCount returns the number of positives stored in the backup filter.
func (f *MembershipFilter) BackupCount() uint64 { return f.backup.Count() }

// MaxSubset returns the trained subset-size cap.
func (f *MembershipFilter) MaxSubset() int { return f.maxSubset }

// SizeBytes returns model plus filter bytes (the paper notes the backup is
// negligible, §8.4.2; both it and any sandwich pre-filter are accounted
// for).
func (f *MembershipFilter) SizeBytes() int {
	total := f.model.SizeBytes() + f.backup.SizeBytes() + f.delta.SizeBytes()
	if f.pre != nil {
		total += f.pre.SizeBytes()
	}
	return total
}

// ModelSizeBytes returns the learned model's share of SizeBytes.
func (f *MembershipFilter) ModelSizeBytes() int { return f.model.SizeBytes() }

// containsFused answers qs into out (same length) with one pooled
// predictor: the cheap pre-checks (empty, out-of-vocabulary, sandwich
// pre-filter) short-circuit, and the queries that actually need the model
// run through a single PredictBatch. Answers match per-query Contains.
func (f *MembershipFilter) containsFused(out []bool, qs []sets.Set) {
	need := make([]sets.Set, 0, len(qs))
	needAt := make([]int, 0, len(qs))
	for i, q := range qs {
		switch {
		case len(q) == 0:
			out[i] = true // the empty set is a subset of everything
		case f.delta.Contains(q):
			out[i] = true // exact hit among sets inserted after build
		case q[len(q)-1] > f.model.Config().MaxID:
			out[i] = false // unknown element: cannot occur in the trained bulk
		case f.pre != nil && !f.pre.Contains(q.Hash()):
			out[i] = false // sandwich pre-filter: definitely absent
		default:
			need = append(need, q)
			needAt = append(needAt, i)
		}
	}
	if len(need) == 0 {
		return
	}
	probs := f.pred.PredictBatch(nil, need)
	for j, q := range need {
		out[needAt[j]] = probs[j] > f.threshold || f.backup.Contains(q.Hash())
	}
}

// ContainsBatch answers many membership queries, fanning out across
// workers (the predictor pool makes the filter safe for concurrent use) —
// a first step toward the multi-set multi-membership querying the paper
// names as future work (§9). Each worker's slice runs through the fused
// batch path, so model evaluations are batched per worker.
func (f *MembershipFilter) ContainsBatch(qs []sets.Set, workers int) []bool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(qs) {
		workers = len(qs)
	}
	out := make([]bool, len(qs))
	if workers <= 1 {
		f.containsFused(out, qs)
		return out
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*len(qs)/workers, (w+1)*len(qs)/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			f.containsFused(out[lo:hi], qs[lo:hi])
		}(lo, hi)
	}
	wg.Wait()
	return out
}
