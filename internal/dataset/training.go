package dataset

import (
	"math/rand"
	"sort"

	"setlearn/internal/sets"
)

// Sample is one supervised training example: a query subset and its raw
// (untransformed) target — a first position for the index task or an
// occurrence count for the cardinality task.
type Sample struct {
	Set    sets.Set
	Target float64
}

// SubsetStats enumerates every distinct subset of size ≤ maxSubset appearing
// in the collection and records its first position and cardinality in a
// single pass. This is the training-data generation of §7.1.1 ("for the
// cardinality and indexing task, we generate all subsets of the sets").
type SubsetStats struct {
	Keys  []string // first-seen order, for deterministic iteration
	ByKey map[string]*SubsetInfo
}

// SubsetInfo is the per-subset ground truth.
type SubsetInfo struct {
	Set      sets.Set
	FirstPos int
	Card     int
}

// CollectSubsets builds SubsetStats over c.
func CollectSubsets(c *sets.Collection, maxSubset int) *SubsetStats {
	return collectSubsets(c, maxSubset, false)
}

// CollectSubsetsWithFull is CollectSubsets but additionally records every
// full set even when it exceeds maxSubset, so equality queries (§4.1) are
// answerable for sets of any size.
func CollectSubsetsWithFull(c *sets.Collection, maxSubset int) *SubsetStats {
	return collectSubsets(c, maxSubset, true)
}

func collectSubsets(c *sets.Collection, maxSubset int, includeFull bool) *SubsetStats {
	st := &SubsetStats{ByKey: make(map[string]*SubsetInfo)}
	record := func(sub sets.Set, pos int) {
		k := sub.Key()
		if info, ok := st.ByKey[k]; ok {
			info.Card++
			return
		}
		st.ByKey[k] = &SubsetInfo{Set: sub, FirstPos: pos, Card: 1}
		st.Keys = append(st.Keys, k)
	}
	for pos, s := range c.Sets {
		sets.Subsets(s, maxSubset, func(sub sets.Set) { record(sub, pos) })
		if includeFull && (maxSubset > 0 && len(s) > maxSubset) {
			// Full-set "subset" for the equality path. Cardinality counts
			// exact duplicates only for these oversized sets; containment
			// counts are already exact for subsets within the cap.
			record(s.Clone(), pos)
		}
	}
	return st
}

// Len returns the number of distinct subsets.
func (st *SubsetStats) Len() int { return len(st.Keys) }

// Contains reports whether q (of size ≤ the collection cap used at build
// time) appears as a subset anywhere in the collection.
func (st *SubsetStats) Contains(q sets.Set) bool {
	_, ok := st.ByKey[q.Key()]
	return ok
}

// IndexSamples returns one sample per distinct subset targeting its first
// position (the indexing task, §4.1).
func (st *SubsetStats) IndexSamples() []Sample {
	out := make([]Sample, len(st.Keys))
	for i, k := range st.Keys {
		info := st.ByKey[k]
		out[i] = Sample{Set: info.Set, Target: float64(info.FirstPos)}
	}
	return out
}

// CardinalitySamples returns one sample per distinct subset targeting its
// occurrence count (the cardinality task, §4.2).
func (st *SubsetStats) CardinalitySamples() []Sample {
	out := make([]Sample, len(st.Keys))
	for i, k := range st.Keys {
		info := st.ByKey[k]
		out[i] = Sample{Set: info.Set, Target: float64(info.Card)}
	}
	return out
}

// MembershipData is the classification training set of §4.3: positive
// subsets present in the collection and sampled negative subsets whose
// element co-occurrence never appears.
type MembershipData struct {
	Positive []sets.Set
	Negative []sets.Set
}

// MembershipSamples draws negatives by randomly combining element ids
// observed in the collection and rejecting combinations that do occur (the
// paper's negative-data recipe; exhaustive negative generation is a
// combinatorial problem, §7.1.2, so negatives are capped at negPerPos times
// the positive count and at size ≤ maxSubset).
func (st *SubsetStats) MembershipSamples(c *sets.Collection, maxSubset int, negPerPos float64, seed int64) *MembershipData {
	md := &MembershipData{}
	for _, k := range st.Keys {
		md.Positive = append(md.Positive, st.ByKey[k].Set)
	}

	// Element universe observed in the collection.
	freq := c.ElementFrequencies()
	universe := make([]uint32, 0, len(freq))
	for id := range freq {
		universe = append(universe, id)
	}
	// Map iteration order is random; sort for determinism.
	sortUint32(universe)

	rng := rand.New(rand.NewSource(seed))
	wantNeg := int(negPerPos * float64(len(md.Positive)))
	if maxSubset < 2 {
		return md // sizes ≥ 2 only: any single observed element is trivially positive
	}
	maxTry := 100 * wantNeg
	for tries := 0; len(md.Negative) < wantNeg && tries < maxTry; tries++ {
		k := 2 + rng.Intn(maxSubset-1)
		if k > len(universe) {
			continue // not enough distinct ids; the draw counts as a spent try
		}
		ids := make([]uint32, 0, k)
		seen := make(map[uint32]bool, k)
		for len(ids) < k {
			id := universe[rng.Intn(len(universe))]
			if !seen[id] {
				seen[id] = true
				ids = append(ids, id)
			}
		}
		q := sets.New(ids...)
		if !st.Contains(q) {
			md.Negative = append(md.Negative, q)
		}
	}
	return md
}

func sortUint32(xs []uint32) {
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
}

// QueryWorkload draws n query subsets from the collection's own sets, mixing
// small and large subsets as in §8.1.1 ("subsets of the original sets having
// both few and many elements"). Queries are guaranteed to be present, so
// ground truth exists for accuracy evaluation.
func QueryWorkload(c *sets.Collection, n, maxSubset int, seed int64) []sets.Set {
	rng := rand.New(rand.NewSource(seed))
	out := make([]sets.Set, 0, n)
	for len(out) < n {
		s := c.Sets[rng.Intn(c.Len())]
		if len(s) == 0 {
			continue
		}
		k := 1 + rng.Intn(minInt(len(s), maxSubset))
		perm := rng.Perm(len(s))
		ids := make([]uint32, k)
		for i := 0; i < k; i++ {
			ids[i] = s[perm[i]]
		}
		out = append(out, sets.New(ids...))
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
