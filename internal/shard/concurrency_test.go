package shard

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/sets"
)

// TestShardedConcurrentQueryInsert mirrors internal/core's concurrency
// battery: 64 goroutines hammer a sharded index and estimator while writer
// goroutines route Insert/Update to the owning shards. With -race this
// proves the container lock discipline: queries hold the read lock across
// the fan-out, inserts take the write lock to grow the owning shard's
// sub-collection and local→global map.
//
// Trained-subset answers are exact and must stay exact throughout: Insert
// only adds aux entries for subsets with no existing hit, and Update here
// only touches out-of-vocabulary keys.
func TestShardedConcurrentQueryInsert(t *testing.T) {
	base, st := testCollection(t)
	// A private copy: Insert appends to the collection the container serves.
	c := sets.NewCollection(append([]sets.Set(nil), base.Sets...))
	idx, err := BuildShardedIndex(c, Options{Shards: 4, Partitioner: HashBySet}, core.IndexOptions{
		Model: testModel(), MaxSubset: testMaxSubset, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	est, err := BuildShardedEstimator(c, Options{Shards: 4, Partitioner: HashBySet}, core.EstimatorOptions{
		Model: testModel(), MaxSubset: testMaxSubset, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}

	keys := sampleKeys(st, 5)
	queries := make([]sets.Set, len(keys))
	firstPos := make([]int, len(keys))
	estTruth := make([]float64, len(keys))
	for i, key := range keys {
		queries[i] = st.ByKey[key].Set
		firstPos[i] = st.ByKey[key].FirstPos
		estTruth[i] = est.Estimate(queries[i])
	}

	maxID := c.MaxID()
	baseLen := c.Len()
	var insertMu sync.Mutex // serializes collection Append with position handout

	const goroutines, perG = 64, 60
	inserted := make(map[int]sets.Set) // pos → set, for the post-check
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g*37 + i) % len(queries)
				switch g % 8 {
				case 0: // writer: insert a fresh set with unseen elements
					s := sets.New(maxID+1+uint32(g*perG+i)*2, maxID+2+uint32(g*perG+i)*2)
					insertMu.Lock()
					pos := c.Append(s)
					inserted[pos] = s
					insertMu.Unlock()
					idx.Insert(s, pos)
				case 1: // writer: record exact cardinalities for unseen keys
					est.Update(sets.New(maxID+1+uint32(g*perG+i)*2), float64(i))
				case 2: // batched index reads
					got := idx.LookupBatch(nil, queries, false)
					for j := range queries {
						if got[j] != firstPos[j] {
							t.Errorf("LookupBatch(%v) = %d, want %d", queries[j], got[j], firstPos[j])
							return
						}
					}
					i += len(queries) - 1
				case 3: // batched estimator reads
					got := est.EstimateBatch(nil, queries)
					for j := range queries {
						if got[j] != estTruth[j] {
							t.Errorf("EstimateBatch(%v) = %g, want %g", queries[j], got[j], estTruth[j])
							return
						}
					}
					i += len(queries) - 1
				case 7: // footprint and save range over the overrides under writes
					if est.SizeBytes() <= 0 {
						t.Error("SizeBytes <= 0 under writes")
						return
					}
					if i%10 == 0 {
						if err := est.Save(io.Discard); err != nil {
							t.Errorf("Save under writes: %v", err)
							return
						}
					}
				case 4, 5: // single index reads
					if got := idx.Lookup(queries[k]); got != firstPos[k] {
						t.Errorf("Lookup(%v) = %d, want %d", queries[k], got, firstPos[k])
						return
					}
				default: // single estimator reads
					if got := est.Estimate(queries[k]); got != estTruth[k] {
						t.Errorf("Estimate(%v) = %g, want %g", queries[k], got, estTruth[k])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Every inserted set must now be findable at its position, via the aux
	// path of its owning shard.
	if len(inserted) == 0 {
		t.Fatal("no inserts ran")
	}
	for pos, s := range inserted {
		if pos < baseLen {
			t.Fatalf("insert landed at pre-existing position %d", pos)
		}
		if got := idx.Lookup(s); got != pos {
			t.Fatalf("inserted set %v: Lookup = %d, want %d", s, got, pos)
		}
	}
}

// TestShardedConcurrentFilter fires the same goroutine battery at the
// (immutable, lock-free) filter container.
func TestShardedConcurrentFilter(t *testing.T) {
	_, st := testCollection(t)
	sf := shardedFilter(t, 4, HashBySet)
	keys := sampleKeys(st, 5)
	queries := make([]sets.Set, len(keys))
	truth := make([]bool, len(keys))
	for i, key := range keys {
		queries[i] = st.ByKey[key].Set
		truth[i] = sf.Contains(queries[i])
	}
	const goroutines, perG = 64, 40
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				k := (g*53 + i) % len(queries)
				if got := sf.Contains(queries[k]); got != truth[k] {
					t.Errorf("Contains(%v) = %v, serial %v", queries[k], got, truth[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestShardedPanicContainment injects panics into two shards' dispatch
// paths, shard 3's and then shard 1's, with distinct values, and requires
// for the batch path of each container that (a) the query panics with
// shard 1's value, the lowest-numbered shard's, so the failure is neither
// swallowed nor nondeterministic; (b) every other shard still ran the whole
// batch; and (c) once the injection is removed, the container answers
// exactly as before — the panicking shards' pooled predictors were
// returned by their deferred Puts (TestPredictorPoolPanicSafety), so nothing is
// poisoned. The estimator's single-query path must panic too.
func TestShardedPanicContainment(t *testing.T) {
	_, st := testCollection(t)
	keys := sampleKeys(st, 9)
	var qs []sets.Set
	for _, key := range keys {
		qs = append(qs, st.ByKey[key].Set)
	}

	se := shardedEstimator(t, 4, HashBySet)
	estTruth := make([]float64, len(qs))
	for i, q := range qs {
		estTruth[i] = se.Estimate(q)
	}
	se.hook = panicAt(3, 1)
	mustPanic(t, "single-query fan-out", func() { se.Estimate(qs[0]) })
	se.hook = nil
	containBatch(t, "estimator batch fan-out", &se.container, len(qs), func() { se.EstimateBatch(nil, qs) })
	batch := se.EstimateBatch(nil, qs)
	for i, q := range qs {
		if got := se.Estimate(q); got != estTruth[i] || batch[i] != estTruth[i] {
			t.Fatalf("after panic: Estimate(%v) = %g, EstimateBatch %g, want %g — shard state poisoned", q, got, batch[i], estTruth[i])
		}
	}

	sx := shardedIndex(t, 4, HashBySet)
	idxTruth := make([]int, len(qs))
	for i, q := range qs {
		idxTruth[i] = sx.Lookup(q)
	}
	containBatch(t, "index batch fan-out", &sx.container, len(qs), func() { sx.LookupBatch(nil, qs, false) })
	pos := sx.LookupBatch(nil, qs, false)
	for i, q := range qs {
		if got := sx.Lookup(q); got != idxTruth[i] || pos[i] != idxTruth[i] {
			t.Fatalf("after panic: Lookup(%v) = %d, LookupBatch %d, want %d", q, got, pos[i], idxTruth[i])
		}
	}

	sf := shardedFilter(t, 4, HashBySet)
	fltTruth := make([]bool, len(qs))
	for i, q := range qs {
		fltTruth[i] = sf.Contains(q)
	}
	containBatch(t, "filter batch fan-out", &sf.container, len(qs), func() { sf.ContainsBatch(qs, 2) })
	in := sf.ContainsBatch(qs, 2)
	for i, q := range qs {
		if got := sf.Contains(q); got != fltTruth[i] || in[i] != fltTruth[i] {
			t.Fatalf("after panic: Contains(%v) = %v, ContainsBatch %v, want %v", q, got, in[i], fltTruth[i])
		}
	}
}

// panicAt returns a dispatch hook that panics with "shard <s>" at each
// listed shard.
func panicAt(shards ...int) func(int) {
	return func(s int) {
		for _, p := range shards {
			if s == p {
				panic(fmt.Sprintf("shard %d", s))
			}
		}
	}
}

// containBatch runs batch, an n-query batch call on c, with shards 3 and 1
// panicking, and checks that it re-raises shard 1's panic and that every
// other shard advanced its query counter by exactly the batch.
func containBatch[M model, O any](t *testing.T, what string, c *container[M, O], n int, batch func()) {
	t.Helper()
	before := make([]uint64, c.k)
	for s := range before {
		before[s] = c.queries[s].Load()
	}
	c.hook = panicAt(3, 1)
	defer func() { c.hook = nil }()
	if got := mustPanic(t, what, batch); got != "shard 1" {
		t.Fatalf("%s re-raised %v, want shard 1's panic", what, got)
	}
	for s := range before {
		if s == 1 || s == 3 {
			continue
		}
		if got := c.queries[s].Load() - before[s]; got != uint64(n) {
			t.Fatalf("%s: shard %d ran %d queries, want the whole batch of %d", what, s, got, n)
		}
	}
}
