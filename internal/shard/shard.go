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
// error aggregation. An empty shard (possible under hash partitioning) is a
// state without a model: queries skip its model, but its exact delta is
// still consulted, so sets inserted into it answer at once.
//
// One generic container owns everything that does not depend on the
// structure kind: the partition, the write path, the retrain protocol and
// the persistence loop. Index, Estimator and Filter embed it and add only
// their fan-in and their kind-specific state, and a small per-kind function
// table (kind) tells the container how to build, load and persist a shard.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"setlearn/internal/core"
	"setlearn/internal/sets"
)

// Partitioner selects how sets are assigned to shards.
type Partitioner int

// The values are persisted in container headers. Code 1 belonged to a
// position-range partitioner; streams that carry it load as HashBySet (see
// readContainerHeader).
const (
	// HashBySet routes each set by its permutation-invariant content hash:
	// shard = Hash(S) mod K. Insert routes new sets the same way, so a
	// set's owning shard is a pure function of its elements.
	HashBySet Partitioner = 0
	// FrequencyBand scores each set by the corpus frequency of its most
	// frequent element and cuts the score order into K equal-count bands,
	// so each shard sees a coherent slice of the Zipf skew. Shards are
	// score-disjoint, which lets queries provably skip shards that cannot
	// contain a trained superset (see router.prunes). Inserts route to the
	// first band whose score bound covers the set.
	FrequencyBand Partitioner = 2
	// EmbedCluster groups sets by k-means over pooled φ embeddings from a
	// tiny fixed-seed pilot model, so each shard's model fits a narrower
	// content distribution. Inserts route to the nearest centroid (hash
	// fallback for out-of-vocabulary sets).
	EmbedCluster Partitioner = 3
)

func (p Partitioner) String() string {
	switch p {
	case HashBySet:
		return "hash"
	case FrequencyBand:
		return "freq"
	case EmbedCluster:
		return "cluster"
	default:
		return fmt.Sprintf("partitioner(%d)", int(p))
	}
}

// ParsePartitioner parses the CLI spelling ("hash", "freq", or "cluster").
func ParsePartitioner(s string) (Partitioner, error) {
	switch s {
	case "hash":
		return HashBySet, nil
	case "freq":
		return FrequencyBand, nil
	case "cluster":
		return EmbedCluster, nil
	default:
		return 0, fmt.Errorf("shard: unknown partitioner %q (want \"hash\", \"freq\", or \"cluster\")", s)
	}
}

// Options configures a sharded build.
type Options struct {
	// Shards is the shard count K (default 4).
	Shards int
	// Partitioner assigns sets to shards (default HashBySet).
	Partitioner Partitioner
	// Parallelism bounds the build worker pool (default GOMAXPROCS).
	Parallelism int
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
	case HashBySet, FrequencyBand, EmbedCluster:
	default:
		return o, fmt.Errorf("shard: unknown partitioner %d", int(o.Partitioner))
	}
	if o.Parallelism <= 0 {
		o.Parallelism = runtime.GOMAXPROCS(0)
	}
	return o, nil
}

// scaleModel returns the per-shard model options: every model dimension —
// EmbedDim, PhiHidden, PhiOut, RhoHidden — divided by √K (floor 4, never
// upscaled). Each shard sees ~1/K of the sets, so a smaller latent suffices
// (Wagstaff et al.), and the K-way build does less total work than the
// monolith even on one core. K=1 is the identity, preserving the K=1 ≡
// monolith equivalence. Defaults are materialized first so the division
// matches what the monolith would actually build.
func scaleModel(o core.ModelOptions, k int) core.ModelOptions {
	if k <= 1 {
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

// fanOut runs fn(s) for every shard in turn on the caller's goroutine. A
// panic in one shard's call is contained: each call runs under its own
// deferred recover, the remaining shards still run (their pooled
// predictors are returned by the pool's deferred Put, so they stay usable),
// and the lowest-numbered shard's panic value is re-raised after the loop.
func fanOut(k int, fn func(s int)) {
	var first any
	for s := 0; s < k; s++ {
		if r := callShard(fn, s); r != nil && first == nil {
			first = r
		}
	}
	if first != nil {
		panic(first)
	}
}

// callShard runs fn(s) and returns the value it panicked with, or nil. A
// panic(nil) surfaces as a non-nil *runtime.PanicNilError.
func callShard(fn func(s int), s int) (r any) {
	defer func() { r = recover() }()
	fn(s)
	return nil
}

func validate(c *sets.Collection) error {
	if c == nil || c.Len() == 0 {
		return fmt.Errorf("shard: empty collection")
	}
	return nil
}
