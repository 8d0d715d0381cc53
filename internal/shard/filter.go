package shard

import (
	"fmt"
	"sync/atomic"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/deepsets"
	"setlearn/internal/hybrid"
	"setlearn/internal/sets"
)

// fltShard is the swap-unit state of one filter shard: the trained filter,
// its sub-collection (needed to retrain; nil when loaded without a
// collection), and the exact delta of sets inserted after training.
type fltShard struct {
	flt    *core.MembershipFilter // nil for a shard with no trained sets yet
	sub    *sets.Collection       // trained sets in position order; nil until attached
	global []int                  // global positions of the trained sets
	delta  *hybrid.Delta
	stat   BuildStat
}

// Filter is a K-way partitioned MembershipFilter. A query is a subset of
// some set in the collection iff it is a subset of some set in one of the
// shards, so the fan-in is a short-circuiting OR. Each shard keeps the
// monolith's guarantee over its own sub-collection — no false negatives
// within the trained size cap — and OR preserves it: the shard owning a
// positive query answers true. Sets inserted after build are answered
// exactly from the owning shard's delta, so the no-false-negative
// guarantee extends to them at any query size.
//
// Queries are lock-free: each per-shard dispatch loads the shard's atomic
// state pointer once; per-shard predictor pools make each trained filter
// safe for concurrent use.
type Filter struct {
	states  []atomic.Pointer[fltShard]
	k       int
	part    Partitioner
	route   *router // insert routing + freq-band query pruning; never nil
	maxSub  int
	maxID   atomic.Uint32
	queries []atomic.Uint64
	mutation
	opts *core.FilterOptions // scaled per-shard build options; nil: not retrainable
	fast atomic.Pointer[core.FastPathOptions]

	// hook, when non-nil, runs at the start of every per-shard dispatch.
	// Test-only; set before use, never concurrently.
	hook func(shard int)
}

var (
	_ core.MembershipQuerier = (*Filter)(nil)
	_ core.Inserter          = (*Filter)(nil)
	_ core.ShardStatser      = (*Filter)(nil)
	_ Retrainable            = (*Filter)(nil)
)

// BuildShardedFilter partitions c and builds one MembershipFilter per shard
// in parallel on a bounded worker pool with per-shard error aggregation.
func BuildShardedFilter(c *sets.Collection, o Options, opts core.FilterOptions) (*Filter, error) {
	if err := validate(c); err != nil {
		return nil, err
	}
	o, err := o.withDefaults()
	if err != nil {
		return nil, err
	}
	if opts.MaxSubset == 0 {
		opts.MaxSubset = 3
	}
	subs, globals, rt, err := buildPartition(c, o.Shards, o.Partitioner, opts.Model.Seed)
	if err != nil {
		return nil, err
	}
	rt.buildSupport(subs, opts.MaxSubset)
	opts.Model = ScaleModel(opts.Model, o.Shards, o.Scaling)

	f := &Filter{
		states:  make([]atomic.Pointer[fltShard], o.Shards),
		k:       o.Shards,
		part:    o.Partitioner,
		route:   rt,
		maxSub:  opts.MaxSubset,
		queries: make([]atomic.Uint64, o.Shards),
		opts:    &opts,
	}
	f.maxID.Store(c.MaxID())
	f.baseLen = c.Len()
	f.baseSeed = opts.Model.Seed
	f.nextPos.Store(int64(c.Len()))
	err = runBounded(o.Shards, o.Parallelism, func(s int) error {
		st := &fltShard{
			sub:    subs[s],
			global: globals[s],
			delta:  hybrid.NewDelta(),
			stat:   BuildStat{Shard: s, Sets: subs[s].Len()},
		}
		if subs[s].Len() > 0 {
			so := opts
			so.Model.Seed = f.baseSeed + int64(s)
			t0 := time.Now()
			flt, err := core.BuildMembershipFilter(subs[s], so)
			if err != nil {
				return fmt.Errorf("shard %d: %w", s, err)
			}
			st.flt = flt
			st.stat.BuildSecs = time.Since(t0).Seconds()
			st.stat.Bytes = flt.SizeBytes()
		}
		f.states[s].Store(st)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// Contains reports whether q may be a subset of some set in the collection,
// OR-ing the shards (trained filter plus exact delta) with short-circuit.
// No false negatives occur for trained subsets within the size cap, nor for
// any subset of a set inserted after build.
func (f *Filter) Contains(q sets.Set) bool {
	if len(q) == 0 {
		return true // the empty set is a subset of everything
	}
	for s := 0; s < f.k; s++ {
		if f.hook != nil {
			f.hook(s)
		}
		f.queries[s].Add(1)
		st := f.states[s].Load()
		if st.delta.Contains(q) {
			return true
		}
		// A pruned shard provably holds no trained superset of q, so its
		// trained filter's true answer is false; skip the consult.
		if st.flt != nil && !f.route.prunes(s, q) && st.flt.Contains(q) {
			return true
		}
	}
	return false
}

// ContainsBatch answers many membership queries. The shard fan-out is the
// parallelism axis: every shard runs the whole batch through its fused
// path concurrently, and answers fan in by OR. The workers parameter is
// accepted for interface parity with the monolith and ignored.
func (f *Filter) ContainsBatch(qs []sets.Set, workers int) []bool {
	_ = workers
	out := make([]bool, len(qs))
	if len(qs) == 0 {
		return out
	}
	sts := make([]*fltShard, f.k)
	for s := range sts {
		sts[s] = f.states[s].Load()
	}
	per := make([][]bool, f.k)
	fanOut(f.k, func(s int) {
		if f.hook != nil {
			f.hook(s)
		}
		f.queries[s].Add(uint64(len(qs)))
		if sts[s].flt == nil {
			return
		}
		if !f.route.hasPruning() {
			per[s] = sts[s].flt.ContainsBatch(qs, 1)
			return
		}
		// Scatter pruned queries as exact false, matching the single path.
		sel := make([]sets.Set, 0, len(qs))
		selAt := make([]int, 0, len(qs))
		for j, q := range qs {
			if !f.route.prunes(s, q) {
				sel = append(sel, q)
				selAt = append(selAt, j)
			}
		}
		out := make([]bool, len(qs))
		if len(sel) > 0 {
			vals := sts[s].flt.ContainsBatch(sel, 1)
			for i, j := range selAt {
				out[j] = vals[i]
			}
		}
		per[s] = out
	})
	hasDelta := make([]bool, f.k)
	for s := range sts {
		hasDelta[s] = sts[s].delta.Len() > 0
	}
	for i := range qs {
		if len(qs[i]) == 0 {
			out[i] = true
			continue
		}
		for s := 0; s < f.k; s++ {
			if (per[s] != nil && per[s][i]) || (hasDelta[s] && sts[s].delta.Contains(qs[i])) {
				out[i] = true
				break
			}
		}
	}
	return out
}

// Insert registers a set appended to the logical collection at global
// position pos, recording it in the owning shard's exact delta.
func (f *Filter) Insert(s sets.Set, pos int) {
	s = s.Clone()
	f.insertMu.Lock()
	if int64(pos) >= f.nextPos.Load() {
		f.nextPos.Store(int64(pos) + 1)
	}
	f.logInsert(s, pos)
	sd := f.route.owner(s)
	f.route.noteInsert(sd, s)
	f.states[sd].Load().delta.Add(s, pos)
	f.insertMu.Unlock()
}

// InsertSet appends s to the logical collection: Contains answers true for
// every subset of s the instant this returns, with no false-negative risk.
func (f *Filter) InsertSet(s sets.Set) int {
	s = s.Clone()
	f.insertMu.Lock()
	pos := int(f.nextPos.Add(1)) - 1
	f.logInsert(s, pos)
	sd := f.route.owner(s)
	f.route.noteInsert(sd, s)
	f.states[sd].Load().delta.Add(s, pos)
	f.insertMu.Unlock()
	return pos
}

// DeltaStats reports the pending/absorbed insert counters across shards.
func (f *Filter) DeltaStats() core.DeltaStats {
	ds := core.DeltaStats{PerShard: make([]int, f.k), Absorbed: f.absorbed.Load()}
	var oldest time.Duration
	for s := 0; s < f.k; s++ {
		d := f.states[s].Load().delta
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

// StalestShard returns the shard most in need of a retrain, or -1 (see
// Index.StalestShard). A filter loaded from disk additionally needs
// AttachCollection before it can retrain.
func (f *Filter) StalestShard(minPending int) int {
	if f.opts == nil || f.states[0].Load().sub == nil {
		return -1
	}
	return stalestShard(f.k, minPending, func(s int) *hybrid.Delta { return f.states[s].Load().delta })
}

// EnableFastPath (re)configures φ acceleration on every shard; the
// configuration is remembered and re-applied to retrained shard models.
func (f *Filter) EnableFastPath(o core.FastPathOptions) string {
	f.fast.Store(&o)
	mode := ""
	for s := 0; s < f.k; s++ {
		if sh := f.states[s].Load().flt; sh != nil {
			mode = mergeMode(mode, sh.EnableFastPath(o))
		}
	}
	if mode == "" {
		mode = "off"
	}
	return mode
}

// PhiStats aggregates the per-shard φ accel counters.
func (f *Filter) PhiStats() (deepsets.AccelStats, bool) {
	ps := make([]phiStatser, 0, f.k)
	for s := 0; s < f.k; s++ {
		if sh := f.states[s].Load().flt; sh != nil {
			ps = append(ps, sh)
		}
	}
	return aggregatePhi(ps)
}

// MaxID returns the largest element id accepted by the trained models; it
// grows when a retrain absorbs inserted sets with fresh elements.
func (f *Filter) MaxID() uint32 { return f.maxID.Load() }

// MaxSubset returns the trained subset-size cap shared by all shards.
func (f *Filter) MaxSubset() int { return f.maxSub }

// NumShards returns K.
func (f *Filter) NumShards() int { return f.k }

// Partitioner returns the partitioning scheme.
func (f *Filter) Partitioner() Partitioner { return f.part }

// SizeBytes sums the per-shard structure and delta footprints.
func (f *Filter) SizeBytes() int {
	total := 0
	for s := 0; s < f.k; s++ {
		st := f.states[s].Load()
		if st.flt != nil {
			total += st.flt.SizeBytes()
		}
		total += st.delta.SizeBytes()
	}
	return total
}

// BuildStats returns the per-shard build statistics; a retrained shard
// reports its latest build.
func (f *Filter) BuildStats() []BuildStat {
	out := make([]BuildStat, f.k)
	for s := 0; s < f.k; s++ {
		out[s] = f.states[s].Load().stat
	}
	return out
}

// ShardStats reports the per-shard serving statistics.
func (f *Filter) ShardStats() []core.ShardStat {
	out := make([]core.ShardStat, f.k)
	for s := 0; s < f.k; s++ {
		st := f.states[s].Load()
		pending := st.delta.Len()
		cs := core.ShardStat{
			Shard:   s,
			Sets:    st.stat.Sets + pending,
			Pending: pending,
			Queries: f.queries[s].Load(),
			PhiMode: "off",
		}
		if st.flt != nil {
			cs.Bytes = st.flt.SizeBytes()
			if ps, ok := st.flt.PhiStats(); ok {
				cs.PhiMode = ps.Mode
			}
		}
		out[s] = cs
	}
	return out
}
