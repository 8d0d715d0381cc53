package shard

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// Error-aware partitioners. HashBySet spreads a Zipf-skewed workload
// arbitrarily, so every √K-scaled shard model must represent the whole skew;
// the two partitioners here give each shard a coherent slice instead:
//
//   - FrequencyBand scores each set by its most frequent element and cuts
//     the score order into K equal-count bands. Shards then hold
//     score-disjoint slices, which buys an exact fan-out optimization: a
//     superset of q scores at least score(q), so any shard whose score
//     bound is below score(q) provably holds no trained superset of q and
//     is skipped without consulting its model (see router.prunes).
//   - EmbedCluster runs a small deterministic k-means over pooled DeepSets
//     φ embeddings from a fixed-seed pilot model, so shards group sets by
//     learned content similarity; the per-shard models then fit narrower
//     distributions. Assignment state (centroids + pilot config) persists
//     so inserts keep routing consistently after a reload.

const (
	// pilotDim is the embedding width of the cluster partitioner's pilot
	// model — intentionally tiny; it only has to separate sets, not
	// predict anything.
	pilotDim = 8
	// pilotSeedOffset derives the pilot's weight seed from the build seed.
	pilotSeedOffset = 1_000_003
	// kmeansRounds is the fixed Lloyd-iteration count (deterministic; no
	// convergence test, no RNG).
	kmeansRounds = 8
	// maxPilotDim bounds what a decoded header may demand.
	maxPilotDim = 256
)

// router owns shard assignment after build: where inserted sets go, and
// which shards a query can provably skip. Hash keeps no assignment state;
// freq and cluster carry the build-time tables, which persist in the
// v3 container header. Routing must stay consistent with the build-time
// partition or the freq pruning invariant (shard s holds only sets scoring
// ≤ bounds[s]) would break after a retrain absorbed misrouted inserts.
//
// Two exact prune layers compose (see prunes):
//
//   - frequency bounds (FrequencyBand only): a superset of q scores at
//     least score(q), so bands bounded below score(q) hold no superset.
//   - element presence (every partitioner, K > 1): a shard in which some
//     element of q never occurs holds no superset of q at all. The per-shard
//     bitmaps grow on insert (before the set becomes visible) and persist,
//     so they stay sound across retrains and reloads.
type router struct {
	k       int
	freq    *freqRouter     // FrequencyBand with k > 1
	clust   *clusterRouter  // EmbedCluster with k > 1
	present []presence      // per-shard element bitmaps; nil with K=1 or pre-v3 loads
	support []supportFilter // per-shard subset-support Blooms; nil with K=1 or pre-v3 loads
	maxSub  int             // the support filters' subset size cap
}

// presence is one shard's element-occurrence bitmap behind an atomic
// pointer: queries read lock-free, inserts copy-on-write under the
// container's insert lock. A nil word slice means the bitmap was never
// built (pre-v3 container) and the shard is never presence-pruned.
type presence struct {
	words atomic.Pointer[[]uint64]
}

// covers reports whether every element of q occurs in the shard. An unbuilt
// bitmap covers everything (prune only on proof of absence).
func (p *presence) covers(q sets.Set) bool {
	wp := p.words.Load()
	if wp == nil {
		return true
	}
	w := *wp
	for _, e := range q {
		i := int(e >> 6)
		if i >= len(w) || w[i]&(1<<(e&63)) == 0 {
			return false
		}
	}
	return true
}

// mark grows the bitmap to include s's elements. Callers serialize (the
// container's insert lock); the copy-on-write swap keeps concurrent covers
// calls consistent. Marking before the set becomes visible is always sound:
// a larger bitmap only prunes less.
func (p *presence) mark(s sets.Set) {
	cur := p.words.Load()
	if cur == nil {
		return // pre-v3 container: presence pruning is off, nothing to maintain
	}
	missing := false
	for _, e := range s {
		i := int(e >> 6)
		if i >= len(*cur) || (*cur)[i]&(1<<(e&63)) == 0 {
			missing = true
			break
		}
	}
	if !missing {
		return
	}
	need := len(*cur)
	if n := int(s[len(s)-1]>>6) + 1; n > need {
		need = n
	}
	next := make([]uint64, need)
	copy(next, *cur)
	for _, e := range s {
		next[e>>6] |= 1 << (e & 63)
	}
	p.words.Store(&next)
}

// newRouter returns a stateless router: inserts route by content hash, a
// pure function of the elements (also the K=1 degenerate form of
// freq/cluster, where every set routes to shard 0). Unlike the trained
// fan-out, empty shards are not skipped: their delta serves the set exactly
// until a retrain builds the shard's first model.
func newRouter(k int) *router { return &router{k: k} }

// owner picks the shard an inserted set routes to.
func (r *router) owner(s sets.Set) int {
	switch {
	case r.freq != nil:
		return r.freq.owner(s)
	case r.clust != nil:
		return r.clust.owner(s)
	default:
		return int(s.Hash() % uint64(r.k))
	}
}

// prunes reports whether shard sd provably contains no set S ⊇ q. Three
// exact layers, cheapest first:
//
//   - frequency bounds (FrequencyBand): score(S) = max element frequency
//     over S ≥ score(q) for any superset, and bands hold only sets scoring
//     ≤ bounds[sd];
//   - element presence: some element of q never occurs in the shard;
//   - subset support: q is within the trained size cap and the shard's
//     Bloom filter over its complete trained-subset enumeration reports it
//     absent (no false negatives, so absence is proof).
//
// All three are exact, so skipping the shard's model/filter/index changes
// no answer — only the shard's delta (which may momentarily lead the
// retrained model) must still be consulted. Always false at K=1. h is
// q.Hash(), computed once per query by the caller rather than once per
// shard.
func (r *router) prunes(sd int, q sets.Set, h uint64) bool {
	if r.freq != nil && r.freq.score(q) > r.freq.bounds[sd] {
		return true
	}
	if r.present != nil && !r.present[sd].covers(q) {
		return true
	}
	return r.support != nil && len(q) <= r.maxSub && r.support[sd].excludes(h)
}

// hasPruning reports whether prunes can ever return true, letting batch
// paths skip the per-query selection entirely.
func (r *router) hasPruning() bool {
	return r.freq != nil || r.present != nil || r.support != nil
}

// noteInsert folds an inserted set into its shard's presence bitmap and
// support filter. Call under the container's insert lock, before the set
// becomes visible.
func (r *router) noteInsert(sd int, s sets.Set) {
	if len(s) == 0 {
		return
	}
	if r.present != nil {
		r.present[sd].mark(s)
	}
	if r.support != nil {
		r.support[sd].insert(s, r.maxSub)
	}
}

// buildPresence computes the per-shard element bitmaps from the built
// partition.
func buildPresence(subs []*sets.Collection, maxID uint32) []presence {
	out := make([]presence, len(subs))
	for s, sub := range subs {
		w := make([]uint64, int(maxID>>6)+1)
		for i := 0; i < sub.Len(); i++ {
			for _, e := range sub.At(i) {
				w[e>>6] |= 1 << (e & 63)
			}
		}
		out[s].words.Store(&w)
	}
	return out
}

// presenceFromWords rebuilds the router bitmaps from persisted words; nil
// rows stay unbuilt (never pruned, never grown).
func presenceFromWords(rows [][]uint64) []presence {
	out := make([]presence, len(rows))
	for s, row := range rows {
		if row == nil {
			continue
		}
		w := append([]uint64(nil), row...)
		out[s].words.Store(&w)
	}
	return out
}

// presenceWords snapshots the router bitmaps for persistence.
func (r *router) presenceWords() [][]uint64 {
	if r.present == nil {
		return nil
	}
	out := make([][]uint64, len(r.present))
	for s := range r.present {
		if wp := r.present[s].words.Load(); wp != nil {
			out[s] = *wp
		}
	}
	return out
}

// freqRouter is the frequency-band routing state: the build-time element
// frequency table and the per-shard score bounds.
type freqRouter struct {
	ids    []uint32 // element ids, sorted (deterministic persistence)
	counts []int64  // parallel occurrence counts
	byID   map[uint32]int64
	bounds []int64 // per shard: max score routed to the shard; non-decreasing
}

// score returns the set's routing score: the corpus frequency of its most
// frequent element at build time. Elements outside the build vocabulary
// count 0, which keeps the pruning bound sound (a superset's score can only
// be larger).
func (f *freqRouter) score(s sets.Set) int64 {
	var sc int64
	for _, e := range s {
		if c := f.byID[e]; c > sc {
			sc = c
		}
	}
	return sc
}

// owner routes a set to the first band whose bound covers its score. Every
// score is ≤ bounds[k-1] by construction (bounds[k-1] is lifted to the max
// score, and unseen elements score 0), so the fallthrough is defensive.
func (f *freqRouter) owner(s sets.Set) int {
	sc := f.score(s)
	for i, b := range f.bounds {
		if sc <= b {
			return i
		}
	}
	return len(f.bounds) - 1
}

// clusterRouter is the embedding-cluster routing state: the pilot model
// that embeds sets and the k-means centroids.
type clusterRouter struct {
	centroids [][]float64
	dim       int
	maxID     uint32
	seed      int64
	pilot     *deepsets.PredictorPool
}

// pilotConfig is the tiny fixed-architecture embedding model; it must be
// reconstructible from (maxID, dim, seed) alone so a loaded container
// routes identically.
func pilotConfig(maxID uint32, dim int, seed int64) deepsets.Config {
	return deepsets.Config{
		MaxID:     maxID,
		EmbedDim:  dim,
		PhiOut:    dim,
		PhiHidden: []int{dim},
		RhoHidden: []int{dim},
		Seed:      seed,
	}
}

func newClusterRouter(centroids [][]float64, dim int, maxID uint32, seed int64) (*clusterRouter, error) {
	m, err := deepsets.New(pilotConfig(maxID, dim, seed))
	if err != nil {
		return nil, fmt.Errorf("shard: cluster pilot: %w", err)
	}
	return &clusterRouter{
		centroids: centroids,
		dim:       dim,
		maxID:     maxID,
		seed:      seed,
		pilot:     m.NewPredictorPool(),
	}, nil
}

// owner routes a set to its nearest centroid. Sets with elements beyond the
// pilot vocabulary (possible only for post-build inserts) fall back to the
// content hash — any shard is correct for an insert; its delta serves the
// set exactly.
func (c *clusterRouter) owner(s sets.Set) int {
	if len(s) == 0 || s[len(s)-1] > c.maxID {
		return int(s.Hash() % uint64(len(c.centroids)))
	}
	v := c.pilot.PooledVector(nil, s)
	best, bestD := 0, math.Inf(1)
	for i, cent := range c.centroids {
		if d := sqDist(v, cent); d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

func sqDist(a, b []float64) float64 {
	var d float64
	for i := range a {
		diff := a[i] - b[i]
		d += diff * diff
	}
	return d
}

// buildPartition computes the per-position shard assignment of c under p,
// builds the per-shard sub-collections by scanning positions in order (so
// in-shard relative order always matches c — the property the index fan-in
// min depends on), and returns the router for future inserts and query
// pruning. seed feeds the cluster pilot; K=1 skips all partitioner state
// (every partitioner is the identity there, preserving K=1 ≡ monolith).
func buildPartition(c *sets.Collection, k int, p Partitioner, seed int64) ([]*sets.Collection, [][]int, *router, error) {
	rt := newRouter(k)
	n := c.Len()
	assign := make([]int, n)
	switch {
	case k == 1:
		// all zeros
	case p == HashBySet:
		for pos := 0; pos < n; pos++ {
			assign[pos] = int(c.At(pos).Hash() % uint64(k))
		}
	case p == FrequencyBand:
		rt.freq = buildFreqRouter(c, k, assign)
	case p == EmbedCluster:
		var err error
		rt.clust, err = buildClusterRouter(c, k, seed, assign)
		if err != nil {
			return nil, nil, nil, err
		}
	}
	subs := make([]*sets.Collection, k)
	globals := make([][]int, k)
	for s := 0; s < k; s++ {
		subs[s] = &sets.Collection{}
	}
	for pos := 0; pos < n; pos++ {
		s := assign[pos]
		subs[s].Append(c.At(pos))
		globals[s] = append(globals[s], pos)
	}
	if k > 1 {
		rt.present = buildPresence(subs, c.MaxID())
	}
	return subs, globals, rt, nil
}

// buildFreqRouter scores every set by its most frequent element, sorts by
// (score, position) and cuts into K equal-count bands, writing per-position
// assignments into assign. Band bounds are the per-band max scores, lifted
// to be non-decreasing so empty bands inherit their predecessor's bound
// (routing still lands every score, and a lifted bound only prunes less).
func buildFreqRouter(c *sets.Collection, k int, assign []int) *freqRouter {
	freqs := c.ElementFrequencies()
	f := &freqRouter{
		ids:    make([]uint32, 0, len(freqs)),
		counts: make([]int64, 0, len(freqs)),
		byID:   make(map[uint32]int64, len(freqs)),
		bounds: make([]int64, k),
	}
	for id := range freqs {
		f.ids = append(f.ids, id)
	}
	sort.Slice(f.ids, func(i, j int) bool { return f.ids[i] < f.ids[j] })
	for _, id := range f.ids {
		cnt := int64(freqs[id])
		f.counts = append(f.counts, cnt)
		f.byID[id] = cnt
	}
	n := c.Len()
	scores := make([]int64, n)
	order := make([]int, n)
	for pos := 0; pos < n; pos++ {
		scores[pos] = f.score(c.At(pos))
		order[pos] = pos
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if scores[a] != scores[b] {
			return scores[a] < scores[b]
		}
		return a < b
	})
	for i, pos := range order {
		s := i * k / n
		assign[pos] = s
		if scores[pos] > f.bounds[s] {
			f.bounds[s] = scores[pos]
		}
	}
	for s := 1; s < k; s++ {
		if f.bounds[s] < f.bounds[s-1] {
			f.bounds[s] = f.bounds[s-1]
		}
	}
	return f
}

// buildClusterRouter embeds every set with the pilot model, runs the
// deterministic k-means, and writes capacity-balanced nearest-centroid
// assignments into assign.
func buildClusterRouter(c *sets.Collection, k int, seed int64, assign []int) (*clusterRouter, error) {
	rt, err := newClusterRouter(nil, pilotDim, c.MaxID(), seed+pilotSeedOffset)
	if err != nil {
		return nil, err
	}
	n := c.Len()
	vecs := make([][]float64, n)
	for pos := 0; pos < n; pos++ {
		vecs[pos] = rt.pilot.PooledVector(nil, c.At(pos))
	}
	rt.centroids = kmeansCentroids(vecs, k)
	balancedAssign(vecs, rt.centroids, assign)
	return rt, nil
}

// kmeansCentroids is a fully deterministic k-means: farthest-first
// initialization (ties to the lowest position) followed by a fixed number
// of Lloyd rounds. An empty cluster keeps its previous centroid.
func kmeansCentroids(vecs [][]float64, k int) [][]float64 {
	dim := len(vecs[0])
	cents := make([][]float64, k)
	cents[0] = append([]float64(nil), vecs[0]...)
	// nearest[i] = squared distance from vecs[i] to its closest chosen centroid.
	nearest := make([]float64, len(vecs))
	for i, v := range vecs {
		nearest[i] = sqDist(v, cents[0])
	}
	for c := 1; c < k; c++ {
		far, farD := 0, -1.0
		for i, d := range nearest {
			if d > farD {
				far, farD = i, d
			}
		}
		cents[c] = append([]float64(nil), vecs[far]...)
		for i, v := range vecs {
			if d := sqDist(v, cents[c]); d < nearest[i] {
				nearest[i] = d
			}
		}
	}
	sums := make([][]float64, k)
	counts := make([]int, k)
	for round := 0; round < kmeansRounds; round++ {
		for c := 0; c < k; c++ {
			sums[c] = make([]float64, dim)
			counts[c] = 0
		}
		for _, v := range vecs {
			best, bestD := 0, math.Inf(1)
			for c, cent := range cents {
				if d := sqDist(v, cent); d < bestD {
					best, bestD = c, d
				}
			}
			for j, x := range v {
				sums[best][j] += x
			}
			counts[best]++
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				continue
			}
			for j := range sums[c] {
				cents[c][j] = sums[c][j] / float64(counts[c])
			}
		}
	}
	return cents
}

// balancedAssign assigns each position (in order) to the nearest centroid
// with remaining capacity ⌈n/k⌉, so no shard exceeds an even split —
// cluster quality never costs build parallelism.
func balancedAssign(vecs [][]float64, cents [][]float64, assign []int) {
	n, k := len(vecs), len(cents)
	cap := (n + k - 1) / k
	load := make([]int, k)
	for pos, v := range vecs {
		best, bestD := -1, math.Inf(1)
		for c, cent := range cents {
			if load[c] >= cap {
				continue
			}
			if d := sqDist(v, cent); d < bestD {
				best, bestD = c, d
			}
		}
		assign[pos] = best
		load[best]++
	}
}
