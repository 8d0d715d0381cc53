package shard

import (
	"math/bits"
	"sync/atomic"

	"setlearn/internal/sets"
)

// Subset-support pruning: the third exact prune layer (after frequency
// bounds and element presence, see router.prunes). At build time every
// shard's trained subsets — all subsets of size ≤ MaxSubset of every set in
// the shard, the complete enumeration the models train on — are folded into
// a small Bloom filter keyed by the permutation-invariant set hash. A query
// within the size cap that the filter reports absent provably has no
// superset among the shard's base sets (Bloom filters have no false
// negatives), so the shard's model/index/filter contributes an exact
// zero/miss; false positives merely fall through to the model. This removes
// the fan-in error class that grows with K: shards the query's support
// never touched each adding a little model noise.
//
// Inserts enumerate the new set's subsets into the owning shard's filter
// before the set becomes visible (copy-on-write under the container's
// insert lock, like the presence bitmaps). A set too large to enumerate
// within supportInsertBudget saturates the shard's filter instead — it
// stops pruning, which is always sound.

const (
	// supportBitsPerKey sizes each shard's filter (two probes at 16 bits
	// per key put the false-positive rate under 1% — a prune miss costs one
	// extra model consult, so fan-in accuracy buys it back many times over).
	supportBitsPerKey = 16
	// supportInsertBudget caps the per-insert subset enumeration.
	supportInsertBudget = 1 << 16
	// supportMaxWords bounds what a decoded header row may demand.
	supportMaxWords = 1 << 24
)

// supportFilter is one shard's subset-support Bloom filter. words is
// power-of-two sized; a nil pointer means unbuilt (pre-v3 load) and never
// prunes.
type supportFilter struct {
	words atomic.Pointer[[]uint64]
	sat   atomic.Bool // saturated: an insert overflowed the enumeration budget
}

// probes derives the two bit positions for a set hash: the low word and a
// splitmix-style remix, masked to the power-of-two bit size.
func supportProbes(h uint64, nbits uint64) (uint64, uint64) {
	h2 := h
	h2 ^= h2 >> 30
	h2 *= 0xbf58476d1ce4e5b9
	h2 ^= h2 >> 27
	h2 *= 0x94d049bb133111eb
	h2 ^= h2 >> 31
	return h & (nbits - 1), h2 & (nbits - 1)
}

// excludes reports that the set with hash h (sets.Set.Hash) is provably
// not a trained subset of the shard.
func (f *supportFilter) excludes(h uint64) bool {
	if f.sat.Load() {
		return false
	}
	wp := f.words.Load()
	if wp == nil {
		return false
	}
	w := *wp
	nbits := uint64(len(w)) * 64
	a, b := supportProbes(h, nbits)
	return w[a>>6]&(1<<(a&63)) == 0 || w[b>>6]&(1<<(b&63)) == 0
}

// add sets the probe bits for one subset hash in place (build time, before
// the filter is shared).
func addSupport(w []uint64, h uint64) {
	nbits := uint64(len(w)) * 64
	a, b := supportProbes(h, nbits)
	w[a>>6] |= 1 << (a & 63)
	w[b>>6] |= 1 << (b & 63)
}

// insert folds an inserted set's subsets into the filter, copy-on-write.
// Callers serialize (the container's insert lock). Oversized sets saturate
// the filter instead of enumerating forever.
func (f *supportFilter) insert(s sets.Set, maxSubset int) {
	cur := f.words.Load()
	if cur == nil || f.sat.Load() {
		return
	}
	if subsetCount(len(s), maxSubset) > supportInsertBudget {
		f.sat.Store(true)
		return
	}
	next := append([]uint64(nil), *cur...)
	sets.Subsets(s, maxSubset, func(sub sets.Set) {
		addSupport(next, sub.Hash())
	})
	f.words.Store(&next)
}

// subsetCount returns Σ_{i=1..maxSubset} C(n, i), capped at
// supportInsertBudget+1 to avoid overflow.
func subsetCount(n, maxSubset int) int {
	total := 0
	term := 1
	for i := 1; i <= maxSubset && i <= n; i++ {
		term = term * (n - i + 1) / i
		total += term
		if total > supportInsertBudget {
			return supportInsertBudget + 1
		}
	}
	return total
}

// supportWords allocates a power-of-two word slice sized for n keys.
func supportWords(n int) []uint64 {
	nbits := n * supportBitsPerKey
	if nbits < 64 {
		nbits = 64
	}
	words := 1 << bits.Len(uint((nbits-1)>>6))
	return make([]uint64, words)
}

// buildSupport fills the router's per-shard support filters from the
// partition (no-op at K=1, where nothing ever prunes).
func (r *router) buildSupport(subs []*sets.Collection, maxSubset int) {
	if r.k <= 1 || maxSubset <= 0 {
		return
	}
	r.maxSub = maxSubset
	r.support = make([]supportFilter, r.k)
	for s, sub := range subs {
		var hashes []uint64
		seen := make(map[uint64]bool)
		for i := 0; i < sub.Len(); i++ {
			sets.Subsets(sub.At(i), maxSubset, func(q sets.Set) {
				h := q.Hash()
				if !seen[h] {
					seen[h] = true
					hashes = append(hashes, h)
				}
			})
		}
		w := supportWords(len(hashes))
		for _, h := range hashes {
			addSupport(w, h)
		}
		r.support[s].words.Store(&w)
	}
}

// supportFromHeader rebuilds the filters from persisted rows; nil rows stay
// unbuilt (never pruned, never grown). sat rows persist as such.
func supportFromHeader(rows [][]uint64, sat []bool) []supportFilter {
	out := make([]supportFilter, len(rows))
	for s, row := range rows {
		if row != nil {
			w := append([]uint64(nil), row...)
			out[s].words.Store(&w)
		}
		if s < len(sat) && sat[s] {
			out[s].sat.Store(true)
		}
	}
	return out
}

// supportToWords snapshots the filters for persistence.
func (r *router) supportToWords() (rows [][]uint64, sat []bool) {
	if r.support == nil {
		return nil, nil
	}
	rows = make([][]uint64, len(r.support))
	sat = make([]bool, len(r.support))
	for s := range r.support {
		if wp := r.support[s].words.Load(); wp != nil {
			rows[s] = *wp
		}
		sat[s] = r.support[s].sat.Load()
	}
	return rows, sat
}
