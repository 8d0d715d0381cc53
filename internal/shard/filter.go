package shard

import (
	"io"

	"setlearn/internal/core"
	"setlearn/internal/sets"
)

var fltKind = &kind[*core.MembershipFilter, core.FilterOptions]{
	name:  "member",
	build: core.BuildMembershipFilter,
	load: func(r io.Reader, _ *sets.Collection) (*core.MembershipFilter, error) {
		return core.LoadMembershipFilter(r)
	},
	fields: func(o *core.FilterOptions) (*core.ModelOptions, *int) { return &o.Model, &o.MaxSubset },
	opts:   func(h *containerHeader) **core.FilterOptions { return &h.FltOpts },
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
	container[*core.MembershipFilter, core.FilterOptions]
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
	f := &Filter{}
	if err := f.build(fltKind, c, o, opts, nil); err != nil {
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
	h := q.Hash()
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
		if st.m != nil && !f.route.prunes(s, q, h) && st.m.Contains(q) {
			return true
		}
	}
	return false
}

// ContainsBatch answers many membership queries: each shard in turn runs
// the whole batch through its fused path on the caller's goroutine, and
// answers fan in by OR. The workers parameter is accepted for interface
// parity with the monolith and ignored.
func (f *Filter) ContainsBatch(qs []sets.Set, workers int) []bool {
	_ = workers
	out := make([]bool, len(qs))
	if len(qs) == 0 {
		return out
	}
	sts := f.snapshot()
	per := fanBatch(&f.container, sts, qs, false, func(m *core.MembershipFilter, qs []sets.Set) []bool {
		return m.ContainsBatch(qs, 1)
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

// LoadShardedFilter restores a filter saved by Save; pending deltas are
// restored exactly. Retraining additionally needs AttachCollection.
func LoadShardedFilter(r io.Reader) (*Filter, error) {
	hdr, err := readContainerHeader(r, fltKind.name)
	if err != nil {
		return nil, err
	}
	f := &Filter{}
	if err := f.load(r, hdr, fltKind, nil, nil); err != nil {
		return nil, err
	}
	return f, nil
}
