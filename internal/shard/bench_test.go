package shard

import (
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// BenchmarkShardedBatch answers 64-query batches through the three sharded
// containers' batch paths, with the setup of setlearnbench's sharded
// workload: dataset.GenerateRW(1000, 1500, 1) split K=8 ways by HashBySet,
// compressed models trained for 4 epochs with 2 workers and seed 1,
// subsets of up to 3 elements, and setlearnd's default φ fast path. The
// queries are setlearnbench's pool: 4096 subsets of 1-3 elements sampled
// from collection sets, taken 64 at a time in order.
func BenchmarkShardedBatch(b *testing.B) {
	c := dataset.GenerateRW(1000, 1500, 1)
	mo := core.ModelOptions{Compressed: true, Epochs: 4, Workers: 2, Seed: 1}
	so := Options{Shards: 8, Partitioner: HashBySet, Parallelism: 2}
	est, err := BuildShardedEstimator(c, so, core.EstimatorOptions{Model: mo, MaxSubset: 3, Percentile: 90})
	if err != nil {
		b.Fatal(err)
	}
	idx, err := BuildShardedIndex(c, so, core.IndexOptions{Model: mo, MaxSubset: 3, Percentile: 90})
	if err != nil {
		b.Fatal(err)
	}
	flt, err := BuildShardedFilter(c, so, core.FilterOptions{Model: mo, MaxSubset: 3})
	if err != nil {
		b.Fatal(err)
	}
	fp := core.FastPathOptions{TableBudgetBytes: 64 << 20, CacheBytes: 64 << 20}
	est.EnableFastPath(fp)
	idx.EnableFastPath(fp)
	flt.EnableFastPath(fp)
	pool := dataset.QueryWorkload(c, 4096, 3, 2)

	const batch = 64
	run := func(b *testing.B, answer func(qs []sets.Set)) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			off := i % (len(pool) / batch) * batch
			answer(pool[off : off+batch])
		}
	}
	card := make([]float64, batch)
	pos := make([]int, batch)
	b.Run("card", func(b *testing.B) { run(b, func(qs []sets.Set) { benchCards = est.EstimateBatch(card, qs) }) })
	b.Run("index", func(b *testing.B) { run(b, func(qs []sets.Set) { benchPositions = idx.LookupBatch(pos, qs, false) }) })
	b.Run("member", func(b *testing.B) { run(b, func(qs []sets.Set) { benchMembers = flt.ContainsBatch(qs, 1) }) })
}

// Sinks for the benchmarked answers.
var (
	benchCards     []float64
	benchPositions []int
	benchMembers   []bool
)
