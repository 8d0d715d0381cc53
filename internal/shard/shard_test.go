package shard

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// The fixture: one seeded collection, one monolithic build of each
// structure, and a cache of sharded builds keyed by (kind, K, partitioner).
// Builds are the expensive part of every test here, so they are shared;
// tests that mutate a container (Insert, Update on workload keys) build
// their own.

const testMaxSubset = 2

func testModel() core.ModelOptions {
	return core.ModelOptions{
		EmbedDim: 4, PhiHidden: []int{8}, PhiOut: 8, RhoHidden: []int{8},
		Epochs: 3, LR: 0.01, Workers: 1, Seed: 9,
	}
}

var (
	fixtureOnce sync.Once
	fixtureC    *sets.Collection
	fixtureSt   *dataset.SubsetStats
)

func testCollection(tb testing.TB) (*sets.Collection, *dataset.SubsetStats) {
	tb.Helper()
	fixtureOnce.Do(func() {
		fixtureC = dataset.GenerateRW(150, 240, 71)
		fixtureSt = dataset.CollectSubsets(fixtureC, testMaxSubset)
	})
	return fixtureC, fixtureSt
}

var (
	monoMu     sync.Mutex
	monoIdx    *core.SetIndex
	monoEst    *core.CardinalityEstimator
	monoFlt    *core.MembershipFilter
	shardedIdx = map[string]*Index{}
	shardedEst = map[string]*Estimator{}
	shardedFlt = map[string]*Filter{}
)

func cacheKey(k int, p Partitioner) string { return fmt.Sprintf("%d/%s", k, p) }

func monoIndex(tb testing.TB) *core.SetIndex {
	tb.Helper()
	c, _ := testCollection(tb)
	monoMu.Lock()
	defer monoMu.Unlock()
	if monoIdx == nil {
		idx, err := core.BuildIndex(c, core.IndexOptions{
			Model: testModel(), MaxSubset: testMaxSubset, Percentile: 90,
		})
		if err != nil {
			tb.Fatalf("monolith index: %v", err)
		}
		monoIdx = idx
	}
	return monoIdx
}

func monoEstimator(tb testing.TB) *core.CardinalityEstimator {
	tb.Helper()
	c, _ := testCollection(tb)
	monoMu.Lock()
	defer monoMu.Unlock()
	if monoEst == nil {
		est, err := core.BuildEstimator(c, core.EstimatorOptions{
			Model: testModel(), MaxSubset: testMaxSubset, Percentile: 90,
		})
		if err != nil {
			tb.Fatalf("monolith estimator: %v", err)
		}
		monoEst = est
	}
	return monoEst
}

func monoFilter(tb testing.TB) *core.MembershipFilter {
	tb.Helper()
	c, _ := testCollection(tb)
	monoMu.Lock()
	defer monoMu.Unlock()
	if monoFlt == nil {
		flt, err := core.BuildMembershipFilter(c, core.FilterOptions{
			Model: testModel(), MaxSubset: testMaxSubset,
		})
		if err != nil {
			tb.Fatalf("monolith filter: %v", err)
		}
		monoFlt = flt
	}
	return monoFlt
}

func shardedIndex(tb testing.TB, k int, p Partitioner) *Index {
	tb.Helper()
	c, _ := testCollection(tb)
	monoMu.Lock()
	defer monoMu.Unlock()
	key := cacheKey(k, p)
	if shardedIdx[key] == nil {
		x, err := BuildShardedIndex(c, Options{Shards: k, Partitioner: p}, core.IndexOptions{
			Model: testModel(), MaxSubset: testMaxSubset, Percentile: 90,
		})
		if err != nil {
			tb.Fatalf("sharded index K=%d %s: %v", k, p, err)
		}
		shardedIdx[key] = x
	}
	return shardedIdx[key]
}

func shardedEstimator(tb testing.TB, k int, p Partitioner) *Estimator {
	tb.Helper()
	c, _ := testCollection(tb)
	monoMu.Lock()
	defer monoMu.Unlock()
	key := cacheKey(k, p)
	if shardedEst[key] == nil {
		e, err := BuildShardedEstimator(c, Options{
			Shards: k, Partitioner: p, MeasureBounds: true,
		}, core.EstimatorOptions{
			Model: testModel(), MaxSubset: testMaxSubset, Percentile: 90,
		})
		if err != nil {
			tb.Fatalf("sharded estimator K=%d %s: %v", k, p, err)
		}
		shardedEst[key] = e
	}
	return shardedEst[key]
}

func shardedFilter(tb testing.TB, k int, p Partitioner) *Filter {
	tb.Helper()
	c, _ := testCollection(tb)
	monoMu.Lock()
	defer monoMu.Unlock()
	key := cacheKey(k, p)
	if shardedFlt[key] == nil {
		f, err := BuildShardedFilter(c, Options{Shards: k, Partitioner: p}, core.FilterOptions{
			Model: testModel(), MaxSubset: testMaxSubset,
		})
		if err != nil {
			tb.Fatalf("sharded filter K=%d %s: %v", k, p, err)
		}
		shardedFlt[key] = f
	}
	return shardedFlt[key]
}

// testKs are the shard counts the battery sweeps (the ISSUE's K set: 1, a
// power of two, the bench default, and a prime that leaves shards uneven).
var testKs = []int{1, 2, 4, 7}

var testPartitioners = []Partitioner{HashBySet, RangeByPosition, FrequencyBand, EmbedCluster}

// forEachConfig runs fn as a subtest for every (K, partitioner) pair.
func forEachConfig(t *testing.T, fn func(t *testing.T, k int, p Partitioner)) {
	t.Helper()
	for _, k := range testKs {
		for _, p := range testPartitioners {
			k, p := k, p
			t.Run(fmt.Sprintf("K=%d/%s", k, p), func(t *testing.T) { fn(t, k, p) })
		}
	}
}

// sampleKeys returns every step-th trained subset key.
func sampleKeys(st *dataset.SubsetStats, step int) []string {
	var out []string
	for i := 0; i < len(st.Keys); i += step {
		out = append(out, st.Keys[i])
	}
	return out
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: expected panic, got none", what)
		}
	}()
	fn()
}

// TestBuildersRejectSubsetCapOutOfRange: a build rejects a subset cap its
// own loader would reject, rather than saving a file that cannot be loaded
// (or, for the filter, panicking in the negative sampler). A sharded build
// fails through its per-shard core builds.
func TestBuildersRejectSubsetCapOutOfRange(t *testing.T) {
	c := mutCollection()
	o := Options{Shards: 3, Partitioner: HashBySet}
	for _, maxSubset := range []int{-1, 65} {
		for _, b := range []struct {
			name  string
			build func() error
		}{
			{"core index", func() error {
				_, err := core.BuildIndex(c, core.IndexOptions{Model: mutModel(), MaxSubset: maxSubset})
				return err
			}},
			{"core estimator", func() error {
				_, err := core.BuildEstimator(c, core.EstimatorOptions{Model: mutModel(), MaxSubset: maxSubset})
				return err
			}},
			{"core filter", func() error {
				_, err := core.BuildMembershipFilter(c, core.FilterOptions{Model: mutModel(), MaxSubset: maxSubset})
				return err
			}},
			{"sharded estimator", func() error {
				_, err := BuildShardedEstimator(c, o, core.EstimatorOptions{Model: mutModel(), MaxSubset: maxSubset})
				return err
			}},
		} {
			if err := b.build(); err == nil || !strings.Contains(err.Error(), "subset cap") {
				t.Errorf("%s with MaxSubset %d: err = %v, want a subset cap error", b.name, maxSubset, err)
			}
		}
	}
}
