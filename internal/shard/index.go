package shard

import (
	"fmt"
	"io"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

var indexKind = &kind[*core.SetIndex, core.IndexOptions]{
	name:   "index",
	build:  core.BuildIndex,
	load:   core.LoadIndex,
	fields: func(o *core.IndexOptions) (*core.ModelOptions, *int) { return &o.Model, &o.MaxSubset },
	opts:   func(h *containerHeader) **core.IndexOptions { return &h.IndexOpts },
	stat:   func(m *core.SetIndex, st *BuildStat) { st.MaxError = m.MaxError() },
}

// Index is a K-way partitioned SetIndex. Queries fan out to the per-shard
// indexes and fan in by taking the minimum offset-corrected hit; both
// partitioners preserve in-shard order, so for queries within the trained
// subset cap the minimum is the global first position (the owning shard
// answers its local first occurrence exactly, and every other shard's hit
// is a real — hence later or equal — occurrence). Each shard's exact delta
// joins the fan-in the same way, so sets inserted after build are found at
// their positions immediately.
//
// Queries are lock-free: each per-shard dispatch loads the shard's
// atomic state pointer once. Writers serialize on the container locks.
type Index struct {
	container[*core.SetIndex, core.IndexOptions]
}

var (
	_ core.IndexQuerier = (*Index)(nil)
	_ core.Inserter     = (*Index)(nil)
	_ core.ShardStatser = (*Index)(nil)
	_ Retrainable       = (*Index)(nil)
)

// BuildShardedIndex partitions c and builds one SetIndex per shard in
// parallel on a bounded worker pool, aggregating per-shard errors. Like
// core.BuildIndex, the collection is captured by reference and must not be
// mutated afterwards except through Insert/InsertSet.
func BuildShardedIndex(c *sets.Collection, o Options, opts core.IndexOptions) (*Index, error) {
	x := &Index{}
	if err := x.build(indexKind, c, o, opts, nil); err != nil {
		return nil, err
	}
	return x, nil
}

// lookupShard answers q on one shard's loaded state and maps the hit to a
// global position (-1 when the shard has no hit), folding in the exact
// delta of sets inserted after the shard's model was trained. h is
// q.Hash().
func (x *Index) lookupShard(st *state[*core.SetIndex], s int, q sets.Set, h uint64, equal bool) int {
	if x.hook != nil {
		x.hook(s)
	}
	x.queries[s].Add(1)
	best := st.delta.FirstPos(q, equal)
	if st.m == nil || x.route.prunes(s, q, h) {
		// A pruned shard provably holds no trained superset of q, so its
		// trained answer is exactly -1; only the delta can contribute.
		return best
	}
	var local int
	if equal {
		local = st.m.LookupEqual(q)
	} else {
		local = st.m.Lookup(q)
	}
	if local >= 0 && local < len(st.global) {
		if p := st.global[local]; best < 0 || p < best {
			best = p
		}
	}
	return best
}

func (x *Index) lookup(q sets.Set, equal bool) int {
	if len(q) == 0 {
		return -1
	}
	h := q.Hash()
	best := -1
	for s := 0; s < x.k; s++ {
		if p := x.lookupShard(x.states[s].Load(), s, q, h, equal); p >= 0 && (best < 0 || p < best) {
			best = p
		}
	}
	return best
}

// Lookup returns the first position i with q ⊆ S[i], or -1.
func (x *Index) Lookup(q sets.Set) int { return x.lookup(q, false) }

// LookupEqual returns the first position whose set is exactly q, or -1.
func (x *Index) LookupEqual(q sets.Set) int { return x.lookup(q, true) }

// LookupBatch answers every query in qs, writing first positions (or -1)
// into dst (grown as needed, returned). Each shard in turn runs the batch
// through its fused batch path; the fan-in min is taken per query. All
// shard states are loaded up front, so the whole batch answers from one
// consistent snapshot even while a retrain swaps underneath.
func (x *Index) LookupBatch(dst []int, qs []sets.Set, equal bool) []int {
	if cap(dst) < len(qs) {
		dst = make([]int, len(qs))
	} else {
		dst = dst[:len(qs)]
	}
	if len(qs) == 0 {
		return dst
	}
	sts := x.snapshot()
	per := fanBatch(&x.container, sts, qs, -1, func(m *core.SetIndex, qs []sets.Set) []int {
		return m.LookupBatch(nil, qs, equal)
	})
	hasDelta := make([]bool, x.k)
	for s := range sts {
		hasDelta[s] = sts[s].delta.Len() > 0
	}
	for i := range qs {
		best := -1
		if len(qs[i]) > 0 {
			for s := 0; s < x.k; s++ {
				if per[s] != nil {
					local := per[s][i]
					if local >= 0 && local < len(sts[s].global) {
						if p := sts[s].global[local]; best < 0 || p < best {
							best = p
						}
					}
				}
				if hasDelta[s] {
					if p := sts[s].delta.FirstPos(qs[i], equal); p >= 0 && (best < 0 || p < best) {
						best = p
					}
				}
			}
		}
		dst[i] = best
	}
	return dst
}

// LoadShardedIndex restores a sharded index over the collection it was
// built on. c must cover the original build (the first BaseLen positions);
// sets inserted afterwards travel in the stream itself and need not be in
// c. Pending deltas are restored exactly, so lookups for inserted sets
// answer correctly the moment the load returns. A stream from a calibrated
// build has its per-shard error bounds remeasured from the sub-collections,
// because the persisted ones were measured on calibrated positions.
func LoadShardedIndex(r io.Reader, c *sets.Collection) (*Index, error) {
	if c == nil {
		return nil, fmt.Errorf("shard: load index: nil collection")
	}
	hdr, err := readContainerHeader(r, indexKind.name)
	if err != nil {
		return nil, err
	}
	remeasure, err := legacyCalibrated(hdr)
	if err != nil {
		return nil, err
	}
	x := &Index{}
	err = x.load(r, hdr, indexKind, c, func(_ int, st *state[*core.SetIndex]) {
		if remeasure && st.m != nil {
			st.m.RemeasureBounds(dataset.CollectSubsetsWithFull(st.sub, hdr.MaxSubset).IndexSamples())
			st.stat.MaxError = st.m.MaxError()
		}
	})
	if err != nil {
		return nil, err
	}
	return x, nil
}
