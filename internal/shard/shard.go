// Package shard partitions a collection into K shards and serves the three
// learned structures of the paper over the partition.
//
// DeepSets' sum-decomposition f(X) = ρ(Σ φ(embed(x))) is oblivious to how
// the collection is split, so a partitioned container can answer exactly the
// same queries as a monolithic build by deterministic fan-out/fan-in:
//
//   - index lookup  = min over shards of the offset-corrected per-shard hit,
//   - cardinality   = sum of per-shard estimates,
//   - membership    = OR of per-shard answers with short-circuit.
//
// Each shard is an ordinary core structure built over its sub-collection, so
// every per-shard guarantee (exactness for trained subsets, no false
// negatives within the size cap) survives composition: a partition preserves
// the relative order of sets inside each shard, every per-shard index hit is
// a real occurrence, and the shard owning a query's first occurrence answers
// it exactly — hence the fan-in min is the global first position for trained
// subsets. Smaller per-shard models also learn easier functions (Wagstaff
// et al.: a model's latent dimension bounds what it can represent over
// sets), which is what makes the K-way build cheaper than the monolith.
//
// Shards are built in parallel by a bounded worker pool with per-shard
// error aggregation; empty shards (possible under hash partitioning) are
// represented as nil and skipped by queries.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"setlearn/internal/core"
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// Partitioner selects how sets are assigned to shards.
type Partitioner int

const (
	// HashBySet routes each set by its permutation-invariant content hash:
	// shard = Hash(S) mod K. Insert routes new sets the same way, so a
	// set's owning shard is a pure function of its elements.
	HashBySet Partitioner = iota
	// RangeByPosition splits the collection into K contiguous position
	// ranges: shard s owns positions [s·N/K, (s+1)·N/K). Shards are ordered
	// by position, so an index fan-out can stop at the first shard that
	// answers. Inserts (which append) route to the last shard.
	RangeByPosition
	// FrequencyBand scores each set by the corpus frequency of its most
	// frequent element and cuts the score order into K equal-count bands,
	// so each shard sees a coherent slice of the Zipf skew. Shards are
	// score-disjoint, which lets queries provably skip shards that cannot
	// contain a trained superset (see router.prunes). Inserts route to the
	// first band whose score bound covers the set.
	FrequencyBand
	// EmbedCluster groups sets by k-means over pooled φ embeddings from a
	// tiny fixed-seed pilot model, so each shard's model fits a narrower
	// content distribution. Inserts route to the nearest centroid (hash
	// fallback for out-of-vocabulary sets).
	EmbedCluster
)

func (p Partitioner) String() string {
	switch p {
	case HashBySet:
		return "hash"
	case RangeByPosition:
		return "range"
	case FrequencyBand:
		return "freq"
	case EmbedCluster:
		return "cluster"
	default:
		return fmt.Sprintf("partitioner(%d)", int(p))
	}
}

// ParsePartitioner parses the CLI spelling ("hash", "range", "freq", or
// "cluster").
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "hash":
		return HashBySet, nil
	case "range":
		return RangeByPosition, nil
	case "freq":
		return FrequencyBand, nil
	case "cluster":
		return EmbedCluster, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner %q (want \"hash\", \"range\", \"freq\", or \"cluster\")", s)
	}
}

// Scaling selects how per-shard model capacity relates to the monolith's.
type Scaling int

const (
	// ScaleSqrtK (the default) divides the model dimensions — EmbedDim,
	// PhiHidden, PhiOut, RhoHidden — by √K (floor 4, never upscaled). Each
	// shard sees ~1/K of the sets, so a smaller latent suffices (Wagstaff
	// et al.), and the K-way build does less total work than the monolith
	// even on one core. K=1 is the identity, preserving the K=1 ≡ monolith
	// equivalence.
	ScaleSqrtK Scaling = iota
	// ScaleNone gives every shard the full monolithic model capacity.
	ScaleNone
)

// Options configures a sharded build.
type Options struct {
	// Shards is the shard count K (default 4).
	Shards int
	// Partitioner assigns sets to shards (default HashBySet).
	Partitioner Partitioner
	// Parallelism bounds the build worker pool (default GOMAXPROCS).
	Parallelism int
	// Scaling sets the per-shard model capacity policy (default ScaleSqrtK).
	Scaling Scaling
	// MeasureBounds (estimator builds only) measures each shard's maximum
	// absolute estimation error over the global trained-subset workload, so
	// the container can report a combined error bound Σ per-shard bounds
	// that deterministically covers the fan-in sum on that workload. Costs
	// one extra pass over the workload per shard.
	MeasureBounds bool
}

// maxShards bounds K at build and load time; far above any sensible
// partition, it exists so corrupt container headers cannot demand huge
// allocations.
const maxShards = 4096

func (o Options) withDefaults() (Options, error) {
	if o.Shards == 0 {
		o.Shards = 4
	}
	if o.Shards < 1 || o.Shards > maxShards {
		return o, fmt.Errorf("shard: shard count %d out of range [1, %d]", o.Shards, maxShards)
	}
	switch o.Partitioner {
	case HashBySet, RangeByPosition, FrequencyBand, EmbedCluster:
	default:
		return o, fmt.Errorf("shard: unknown partitioner %d", int(o.Partitioner))
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// ScaleModel returns the per-shard model options under the scaling policy.
// Defaults are materialized first so the division matches what the monolith
// would actually build.
func ScaleModel(o core.ModelOptions, k int, s Scaling) core.ModelOptions {
	if s == ScaleNone || k <= 1 {
		return o
	}
	f := math.Sqrt(float64(k))
	if o.EmbedDim == 0 {
		o.EmbedDim = 8
	}
	if o.PhiOut == 0 {
		o.PhiOut = 32
	}
	if len(o.PhiHidden) == 0 {
		o.PhiHidden = []int{32}
	}
	if len(o.RhoHidden) == 0 {
		o.RhoHidden = []int{32}
	}
	// EmbedDim scales too: the embedding table is vocab × EmbedDim, and on a
	// single core the optimizer's dense pass over it is the largest
	// K-independent build cost — leaving it unscaled caps the per-shard
	// speedup well below the dense-layer ratio.
	o.EmbedDim = scaleDim(o.EmbedDim, f)
	o.PhiOut = scaleDim(o.PhiOut, f)
	o.PhiHidden = scaleDims(o.PhiHidden, f)
	o.RhoHidden = scaleDims(o.RhoHidden, f)
	return o
}

func scaleDim(d int, f float64) int {
	v := int(float64(d) / f)
	if v < 4 {
		v = 4
	}
	if v > d {
		v = d
	}
	return v
}

func scaleDims(dims []int, f float64) []int {
	out := make([]int, len(dims))
	for i, d := range dims {
		out[i] = scaleDim(d, f)
	}
	return out
}

// BuildStat records what one shard's build produced — the per-shard error
// aggregation surfaced alongside the structures.
type BuildStat struct {
	Shard     int     `json:"shard"`
	Sets      int     `json:"sets"`
	BuildSecs float64 `json:"build_secs"`
	Bytes     int     `json:"bytes"`
	// MaxError is the shard model's global position-error bound (index only).
	MaxError int `json:"max_error,omitempty"`
	// ErrBound is the measured max |estimate − truth| over the global
	// trained workload (estimator with MeasureBounds only).
	ErrBound float64 `json:"err_bound,omitempty"`
}

// runBounded runs fn(0..n-1) on a worker pool of the given size and joins
// the per-shard errors (nil when every shard succeeded).
func runBounded(n, workers int, fn func(int) error) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	sem := make(chan struct{}, workers)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			errs[i] = fn(i)
		}(i)
	}
	wg.Wait()
	return joinErrs(errs)
}

func joinErrs(errs []error) error {
	var first error
	n := 0
	for _, err := range errs {
		if err != nil {
			n++
			if first == nil {
				first = err
			}
		}
	}
	switch n {
	case 0:
		return nil
	case 1:
		return first
	default:
		return fmt.Errorf("%w (and %d more shard errors)", first, n-1)
	}
}

// fanOut runs fn(s) for every shard concurrently and waits for all of them.
// A panic in one shard's goroutine is contained: the remaining shards run
// to completion (their pooled predictors are returned by the pool's
// deferred Put, so they stay usable), and the lowest-numbered shard's panic
// value is re-raised deterministically on the caller's goroutine.
func fanOut(k int, fn func(s int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	panicShard := -1
	var panicVal any
	for s := 0; s < k; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					mu.Lock()
					if panicShard < 0 || s < panicShard {
						panicShard, panicVal = s, r
					}
					mu.Unlock()
				}
			}()
			fn(s)
		}(s)
	}
	wg.Wait()
	if panicShard >= 0 {
		panic(panicVal)
	}
}

// phiStatser is the per-shard φ stats surface shared by the three core types.
type phiStatser interface {
	PhiStats() (deepsets.AccelStats, bool)
}

// aggregatePhi merges per-shard accel stats; Mode is "mixed" when shards
// disagree (e.g. a small shard tabulates while a large one caches).
func aggregatePhi(shards []phiStatser) (deepsets.AccelStats, bool) {
	var agg deepsets.AccelStats
	any := false
	for _, sh := range shards {
		st, ok := sh.PhiStats()
		if !ok {
			continue
		}
		if !any {
			agg.Mode = st.Mode
		} else if agg.Mode != st.Mode {
			agg.Mode = "mixed"
		}
		any = true
		agg.Hits += st.Hits
		agg.Misses += st.Misses
		agg.Entries += st.Entries
		agg.Shards += st.Shards
		agg.Bytes += st.Bytes
	}
	return agg, any
}

// mergeMode folds one shard's fast-path mode into the container's summary.
func mergeMode(acc, mode string) string {
	if acc == "" || acc == mode {
		return mode
	}
	return "mixed"
}

func validate(c *sets.Collection) error {
	if c == nil || c.Len() == 0 {
		return fmt.Errorf("shard: empty collection")
	}
	return nil
}
