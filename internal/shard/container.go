package shard

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// model is what the container needs of a per-shard core structure. The
// three core types satisfy it; comparable lets the container tell an empty
// shard's zero model from a trained one.
type model interface {
	comparable
	EnableFastPath(core.FastPathOptions) string
	PhiStats() (deepsets.AccelStats, bool)
	SizeBytes() int
	MaxID() uint32
	Save(io.Writer) error
}

// kind is the per-structure function table of a container: how to build,
// load and persist one shard model M with build options O.
type kind[M model, O any] struct {
	name  string // the container header's Kind
	build func(*sets.Collection, O) (M, error)
	// load decodes one shard payload. sub is the shard's resolved
	// sub-collection when the loader was given the collection, else nil.
	load func(io.Reader, *sets.Collection) (M, error)
	// fields exposes O's model options and trained subset-size cap.
	fields func(*O) (*core.ModelOptions, *int)
	// opts exposes the header field that persists O.
	opts func(*containerHeader) **O
	// stat, when non-nil, records kind-specific build statistics.
	stat func(M, *BuildStat)
}

// state is the immutable-per-swap serving state of one shard: the trained
// model with its sub-collection and local→global map, plus the exact delta
// of sets inserted after that model was trained. A query loads the shard's
// state pointer once and answers from that consistent pair — either the old
// model with its complete delta or the retrained model with the unabsorbed
// tail — so a background retrain can hot-swap the pointer under live
// traffic without a query ever observing a half-swapped shard. A published
// state is never mutated; writers copy it and store the copy.
type state[M model] struct {
	m      M                // zero for a shard with no trained sets yet
	sub    *sets.Collection // trained sets in global position order; nil until attached
	global []int            // local → global position of the trained sets; nil without a map
	delta  *hybrid.Delta    // sets inserted after m was trained
	stat   BuildStat
}

// container is the K-way sharded state shared by the three structures:
// per-shard states, insert routing and prune state, and the write and
// retrain protocol.
//
// Lock order: retrainMu → insertMu → (estimator only) auxMu. insertMu
// serializes position handout + delta append with the retrain swap, which
// is what guarantees an insert lands either in the old delta (and is then
// absorbed or carried as tail) or in the new state's delta — never lost,
// never doubled. retrainMu serializes whole retrains so a double trigger
// cannot build the same delta twice. Queries take neither: they only load
// state pointers.
type container[M model, O any] struct {
	kind    *kind[M, O]
	states  []atomic.Pointer[state[M]]
	k       int
	part    Partitioner
	route   *router // insert routing + query pruning; never nil
	maxSub  int
	maxID   atomic.Uint32
	queries []atomic.Uint64
	opts    *O // scaled per-shard build options; nil: not retrainable
	fast    atomic.Pointer[core.FastPathOptions]

	insertMu  sync.Mutex
	retrainMu sync.Mutex
	nextPos   atomic.Int64 // next global position handed to InsertSet
	baseLen   int          // collection length at original build/load
	baseSeed  int64        // per-shard model seed base (shard s uses baseSeed+s)
	absorbed  atomic.Uint64
	inserted  []hybrid.DeltaEntry // every insert since original build; insertMu

	// hook, when non-nil, runs at the start of every per-shard dispatch.
	// Test-only (panic injection); set before use, never concurrently.
	hook func(shard int)
}

// init records the container's shape and sizes its per-shard arrays.
func (c *container[M, O]) init(kd *kind[M, O], k int, p Partitioner, rt *router, maxSub int) {
	c.kind, c.k, c.part, c.route, c.maxSub = kd, k, p, rt, maxSub
	c.states = make([]atomic.Pointer[state[M]], k)
	c.queries = make([]atomic.Uint64, k)
}

// build partitions col and trains one shard model per shard in parallel on
// a bounded worker pool, aggregating per-shard errors. finish, when
// non-nil, runs on each trained shard's state before it is published. Like
// the core builders, the collection is captured by reference and must not
// be mutated afterwards except through Insert/InsertSet.
func (c *container[M, O]) build(kd *kind[M, O], col *sets.Collection, o Options, opts O, finish func(int, *state[M])) error {
	if err := validate(col); err != nil {
		return err
	}
	o, err := o.withDefaults()
	if err != nil {
		return err
	}
	mo, maxSub := kd.fields(&opts)
	if *maxSub == 0 {
		*maxSub = 3
	}
	subs, globals, rt, err := buildPartition(col, o.Shards, o.Partitioner, mo.Seed)
	if err != nil {
		return err
	}
	rt.buildSupport(subs, *maxSub)
	*mo = scaleModel(*mo, o.Shards)

	c.init(kd, o.Shards, o.Partitioner, rt, *maxSub)
	c.opts = &opts
	c.maxID.Store(col.MaxID())
	c.baseLen = col.Len()
	c.baseSeed = mo.Seed
	c.nextPos.Store(int64(col.Len()))
	return runBounded(o.Shards, o.Parallelism, func(s int) error {
		st, err := c.train(s, subs[s], globals[s])
		if err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
		if finish != nil && st.m != c.zero() {
			finish(s, st)
		}
		c.states[s].Store(st)
		return nil
	})
}

// train builds shard s's model over sub with the container's scaled
// options and the deterministic seed baseSeed+s, so a retrain over the
// union of trained and absorbed sets is bit-identical to a from-scratch
// build. The returned state has an empty delta. Safe to call concurrently
// for distinct shards.
func (c *container[M, O]) train(s int, sub *sets.Collection, global []int) (*state[M], error) {
	st := &state[M]{
		sub:    sub,
		global: global,
		delta:  hybrid.NewDelta(),
		stat:   BuildStat{Shard: s, Sets: sub.Len()},
	}
	if sub.Len() == 0 {
		return st, nil
	}
	opts := *c.opts
	mo, _ := c.kind.fields(&opts)
	mo.Seed = c.baseSeed + int64(s)
	t0 := time.Now()
	m, err := c.kind.build(sub, opts)
	if err != nil {
		return nil, err
	}
	if fp := c.fast.Load(); fp != nil {
		m.EnableFastPath(*fp)
	}
	st.m = m
	st.stat.BuildSecs = time.Since(t0).Seconds()
	c.measure(st)
	return st, nil
}

// measure records the size and kind-specific statistics of st's model.
func (c *container[M, O]) measure(st *state[M]) {
	st.stat.Bytes = st.m.SizeBytes()
	if c.kind.stat != nil {
		c.kind.stat(st.m, &st.stat)
	}
}

// zero returns M's zero value: the model of a shard with no trained sets.
func (c *container[M, O]) zero() (m M) { return m }

// snapshot loads every shard's state once, so a batch answers from one
// consistent cut even while a retrain swaps underneath.
func (c *container[M, O]) snapshot() []*state[M] {
	sts := make([]*state[M], c.k)
	for s := range sts {
		sts[s] = c.states[s].Load()
	}
	return sts
}

// fanBatch runs qs through every trained shard's batch path, one shard
// after another on the caller's goroutine (see fanOut), and returns the
// per-shard answers (nil for a shard without a model). Queries a shard's
// router prunes are not sent to its model; they are scattered as miss, the
// exact answer of a shard that holds no trained superset, so the fan-in
// matches the single-query path bit for bit. Each query is hashed once per
// batch, the selection buffers are reused from shard to shard, and the
// scattered answers are cut from one slab.
func fanBatch[M model, O, T any](c *container[M, O], sts []*state[M], qs []sets.Set, miss T, batch func(M, []sets.Set) []T) [][]T {
	per := make([][]T, c.k)
	var (
		hs    []uint64
		sel   []sets.Set
		selAt []int
		slab  []T
	)
	if c.route.hasPruning() {
		hs = make([]uint64, len(qs))
		for j, q := range qs {
			hs[j] = q.Hash()
		}
		sel = make([]sets.Set, 0, len(qs))
		selAt = make([]int, 0, len(qs))
		slab = make([]T, c.k*len(qs))
	}
	fanOut(c.k, func(s int) {
		if c.hook != nil {
			c.hook(s)
		}
		c.queries[s].Add(uint64(len(qs)))
		m := sts[s].m
		if m == c.zero() {
			return
		}
		if hs == nil {
			per[s] = batch(m, qs)
			return
		}
		sel, selAt = sel[:0], selAt[:0]
		for j, q := range qs {
			if !c.route.prunes(s, q, hs[j]) {
				sel = append(sel, q)
				selAt = append(selAt, j)
			}
		}
		out := slab[s*len(qs) : (s+1)*len(qs) : (s+1)*len(qs)]
		for j := range out {
			out[j] = miss
		}
		if len(sel) > 0 {
			vals := batch(m, sel)
			for i, j := range selAt {
				out[j] = vals[i]
			}
		}
		per[s] = out
	})
	return per
}

// Insert registers a set appended to the caller's collection at global
// position pos, recording it in the owning shard's exact delta. Queries
// answer it exactly the instant this returns; a later retrain absorbs it
// into the shard's model. O(1) amortized — no retraining on the write path.
func (c *container[M, O]) Insert(s sets.Set, pos int) {
	s = s.Clone()
	c.insertMu.Lock()
	if int64(pos) >= c.nextPos.Load() {
		c.nextPos.Store(int64(pos) + 1)
	}
	c.add(s, pos)
	c.insertMu.Unlock()
}

// InsertSet appends s to the logical collection, assigning the next global
// position itself (the container owns position handout, so callers need
// no external collection bookkeeping). Queries answer s exactly the
// instant this returns.
func (c *container[M, O]) InsertSet(s sets.Set) int {
	s = s.Clone()
	c.insertMu.Lock()
	pos := int(c.nextPos.Add(1)) - 1
	c.add(s, pos)
	c.insertMu.Unlock()
	return pos
}

// add logs one insert and appends it to its owning shard's delta, after
// folding it into the shard's prune state. Caller holds insertMu.
func (c *container[M, O]) add(s sets.Set, pos int) {
	c.inserted = append(c.inserted, hybrid.DeltaEntry{Pos: pos, Set: s})
	sd := c.route.owner(s)
	c.route.noteInsert(sd, s)
	c.states[sd].Load().delta.Add(s, pos)
}

// DeltaStats reports the pending/absorbed insert counters across shards.
func (c *container[M, O]) DeltaStats() core.DeltaStats {
	ds := core.DeltaStats{PerShard: make([]int, c.k), Absorbed: c.absorbed.Load()}
	var oldest time.Duration
	for s := 0; s < c.k; s++ {
		d := c.states[s].Load().delta
		n := d.Len()
		ds.PerShard[s] = n
		ds.Pending += n
		if a := d.Age(); a > oldest {
			oldest = a
		}
	}
	ds.OldestSecs = oldest.Seconds()
	return ds
}

// StalestShard returns the shard most in need of a retrain — the largest
// pending delta, oldest first insert breaking ties — or -1 when no shard
// has at least minPending pending inserts, or the container cannot retrain
// (loaded from a stream without retrain state, or loaded without its
// collection and not yet given it back by AttachCollection).
func (c *container[M, O]) StalestShard(minPending int) int {
	if c.opts == nil || c.states[0].Load().sub == nil {
		return -1
	}
	if minPending < 1 {
		minPending = 1
	}
	best, bestN := -1, 0
	var bestAge time.Duration
	for s := 0; s < c.k; s++ {
		d := c.states[s].Load().delta
		n := d.Len()
		if n < minPending {
			continue
		}
		if a := d.Age(); n > bestN || (n == bestN && a > bestAge) {
			best, bestN, bestAge = s, n, a
		}
	}
	return best
}

// EnableFastPath (re)configures φ acceleration on every shard and reports
// the resulting mode ("table", "cache", "off", or "mixed" when shards
// disagree). The configuration is remembered and re-applied to retrained
// shard models.
func (c *container[M, O]) EnableFastPath(o core.FastPathOptions) string {
	c.fast.Store(&o)
	mode := ""
	for s := 0; s < c.k; s++ {
		if m := c.states[s].Load().m; m != c.zero() {
			if md := m.EnableFastPath(o); mode == "" || mode == md {
				mode = md
			} else {
				mode = "mixed"
			}
		}
	}
	if mode == "" {
		mode = "off"
	}
	return mode
}

// PhiStats aggregates the per-shard φ accel counters; Mode is "mixed" when
// shards disagree (e.g. a small shard tabulates while a large one caches).
func (c *container[M, O]) PhiStats() (deepsets.AccelStats, bool) {
	var agg deepsets.AccelStats
	any := false
	for s := 0; s < c.k; s++ {
		m := c.states[s].Load().m
		if m == c.zero() {
			continue
		}
		st, ok := m.PhiStats()
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

// MaxID returns the largest element id accepted by the trained models; it
// grows when a retrain absorbs inserted sets with fresh elements.
func (c *container[M, O]) MaxID() uint32 { return c.maxID.Load() }

// MaxSubset returns the trained subset-size cap shared by all shards.
func (c *container[M, O]) MaxSubset() int { return c.maxSub }

// NumShards returns K.
func (c *container[M, O]) NumShards() int { return c.k }

// Partitioner returns the partitioning scheme.
func (c *container[M, O]) Partitioner() Partitioner { return c.part }

// SizeBytes sums the per-shard structure and delta footprints.
func (c *container[M, O]) SizeBytes() int {
	total := 0
	for s := 0; s < c.k; s++ {
		st := c.states[s].Load()
		if st.m != c.zero() {
			total += st.m.SizeBytes()
		}
		total += st.delta.SizeBytes()
	}
	return total
}

// BuildStats returns the per-shard build statistics; a retrained shard
// reports its latest build.
func (c *container[M, O]) BuildStats() []BuildStat {
	out := make([]BuildStat, c.k)
	for s := 0; s < c.k; s++ {
		out[s] = c.states[s].Load().stat
	}
	return out
}

// ShardStats reports the per-shard serving statistics published under
// setlearn.shard.* by the server.
func (c *container[M, O]) ShardStats() []core.ShardStat {
	out := make([]core.ShardStat, c.k)
	for s := 0; s < c.k; s++ {
		st := c.states[s].Load()
		pending := st.delta.Len()
		cs := core.ShardStat{
			Shard:   s,
			Sets:    st.stat.Sets + pending,
			Pending: pending,
			Queries: c.queries[s].Load(),
			PhiMode: "off",
		}
		if st.m != c.zero() {
			cs.Bytes = st.m.SizeBytes()
			if ps, ok := st.m.PhiStats(); ok {
				cs.PhiMode = ps.Mode
			}
		}
		out[s] = cs
	}
	return out
}
