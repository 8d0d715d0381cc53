package setlearn_test

// One testing.B benchmark per table and figure of the paper's evaluation
// (§8). The harness benchmarks run the full experiment (training included
// on the first iteration; trained suites are cached afterwards, so
// steady-state iterations measure the workload itself). The Query
// benchmarks measure the per-operation latencies behind Tables 4, 8, and
// 11 directly.
//
// Run everything:  go test -bench=. -benchmem
// One experiment:  go test -bench=BenchmarkTable3 -benchmem

import (
	"io"
	"testing"

	"setlearn/internal/bench"
	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
)

func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := bench.Run(name, io.Discard, dataset.Tiny); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2DatasetStats regenerates Table 2 (dataset statistics).
func BenchmarkTable2DatasetStats(b *testing.B) { runExperiment(b, "table2") }

// BenchmarkFig3EmbeddingVsBloom regenerates Figure 3 (embedding matrix vs
// Bloom filter size).
func BenchmarkFig3EmbeddingVsBloom(b *testing.B) { runExperiment(b, "fig3") }

// BenchmarkFig6CardinalityAccuracy regenerates Figure 6 (cardinality
// q-error by query result size, all variants, all datasets).
func BenchmarkFig6CardinalityAccuracy(b *testing.B) { runExperiment(b, "fig6") }

// BenchmarkTable3CardinalityMemory regenerates Table 3 (estimator memory).
func BenchmarkTable3CardinalityMemory(b *testing.B) { runExperiment(b, "table3") }

// BenchmarkTable4CardinalityLatency regenerates Table 4 (per-query
// estimator latency).
func BenchmarkTable4CardinalityLatency(b *testing.B) { runExperiment(b, "table4") }

// BenchmarkTable5IndexAccuracy regenerates Table 5 (index accuracy across
// eviction percentiles).
func BenchmarkTable5IndexAccuracy(b *testing.B) { runExperiment(b, "table5") }

// BenchmarkTable6CompressionFactor regenerates Table 6 (tunable sv_d).
func BenchmarkTable6CompressionFactor(b *testing.B) { runExperiment(b, "table6") }

// BenchmarkTable7IndexMemory regenerates Table 7 (hybrid index memory
// breakdown vs B+ tree).
func BenchmarkTable7IndexMemory(b *testing.B) { runExperiment(b, "table7") }

// BenchmarkTable8IndexLatency regenerates Table 8 (per-query index
// latency).
func BenchmarkTable8IndexLatency(b *testing.B) { runExperiment(b, "table8") }

// BenchmarkLocalVsGlobalError regenerates the §8.3.3 local-vs-global error
// bound comparison.
func BenchmarkLocalVsGlobalError(b *testing.B) { runExperiment(b, "localerr") }

// BenchmarkTable9BloomAccuracy regenerates Table 9 (learned Bloom filter
// binary accuracy).
func BenchmarkTable9BloomAccuracy(b *testing.B) { runExperiment(b, "table9") }

// BenchmarkTable10BloomMemory regenerates Table 10 (filter memory vs fp
// rate).
func BenchmarkTable10BloomMemory(b *testing.B) { runExperiment(b, "table10") }

// BenchmarkTable11BloomLatency regenerates Table 11 (per-query filter
// latency).
func BenchmarkTable11BloomLatency(b *testing.B) { runExperiment(b, "table11") }

// BenchmarkFig7DigitSum regenerates Figure 7 (digit-sum generalization,
// DeepSets vs CDeepSets vs LSTM vs GRU).
func BenchmarkFig7DigitSum(b *testing.B) { runExperiment(b, "fig7") }

// BenchmarkFig8CompressionDims regenerates Figure 8 (input dimensionality
// vs ns).
func BenchmarkFig8CompressionDims(b *testing.B) { runExperiment(b, "fig8") }

// BenchmarkTable12PgSim regenerates Table 12 (estimator as a UDF in the
// pgsim row store).
func BenchmarkTable12PgSim(b *testing.B) { runExperiment(b, "table12") }

// BenchmarkBuildTime regenerates the §8.1 construction-cost comparison.
func BenchmarkBuildTime(b *testing.B) { runExperiment(b, "buildtime") }

// ---------------------------------------------------------------------------
// Per-operation latency benchmarks: the single-query costs behind Tables 4,
// 8, and 11, measured through testing.B so ns/op and allocations land in
// bench_output.txt.

func cardSuite(b *testing.B) *bench.CardSuite {
	b.Helper()
	s, err := bench.BuildCardSuite(dataset.NamedCollection{
		Name:       "RW",
		Collection: dataset.GenerateRW(dataset.Tiny.RWN, dataset.Tiny.RWVocab, 101),
	}, dataset.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkQueryCardinalityLSM measures one LSM estimate (Table 4 row).
func BenchmarkQueryCardinalityLSM(b *testing.B) {
	s := cardSuite(b)
	qs := dataset.QueryWorkload(s.Data.Collection, 256, dataset.Tiny.MaxSubset, 1)
	est := s.Variants[0].Estimator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Estimate(qs[i%len(qs)])
	}
}

// BenchmarkQueryCardinalityCLSMHybrid measures one CLSM-Hybrid estimate.
func BenchmarkQueryCardinalityCLSMHybrid(b *testing.B) {
	s := cardSuite(b)
	qs := dataset.QueryWorkload(s.Data.Collection, 256, dataset.Tiny.MaxSubset, 1)
	est := s.Variants[3].Estimator
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		est.Estimate(qs[i%len(qs)])
	}
}

// BenchmarkQueryCardinalityHashMap measures the exact HashMap lookup.
func BenchmarkQueryCardinalityHashMap(b *testing.B) {
	s := cardSuite(b)
	qs := dataset.QueryWorkload(s.Data.Collection, 256, dataset.Tiny.MaxSubset, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.HashMap.Cardinality(qs[i%len(qs)])
	}
}

func indexSuite(b *testing.B) *bench.IndexSuite {
	b.Helper()
	s, err := bench.BuildIndexSuite(dataset.NamedCollection{
		Name:       "RW",
		Collection: dataset.GenerateRW(dataset.Tiny.RWN, dataset.Tiny.RWVocab, 101),
	}, dataset.Tiny, 90, 100)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkQueryIndexHybrid measures one hybrid index lookup (Table 8 row).
func BenchmarkQueryIndexHybrid(b *testing.B) {
	s := indexSuite(b)
	qs := dataset.QueryWorkload(s.Data.Collection, 256, dataset.Tiny.MaxSubset, 2)
	idx := s.Variants[1].Index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.Lookup(qs[i%len(qs)])
	}
}

// BenchmarkQueryIndexGlobalBound measures the same lookup under the single
// global error bound (§8.3.3 baseline).
func BenchmarkQueryIndexGlobalBound(b *testing.B) {
	s := indexSuite(b)
	qs := dataset.QueryWorkload(s.Data.Collection, 256, dataset.Tiny.MaxSubset, 2)
	idx := s.Variants[1].Index
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.LookupGlobalBound(qs[i%len(qs)])
	}
}

// BenchmarkQueryIndexBPTree measures the B+ tree competitor lookup.
func BenchmarkQueryIndexBPTree(b *testing.B) {
	s := indexSuite(b)
	qs := dataset.QueryWorkload(s.Data.Collection, 256, dataset.Tiny.MaxSubset, 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.BPTree.Lookup(qs[i%len(qs)])
	}
}

func bloomSuite(b *testing.B) *bench.BloomSuite {
	b.Helper()
	s, err := bench.BuildBloomSuite(dataset.NamedCollection{
		Name:       "RW",
		Collection: dataset.GenerateRW(dataset.Tiny.RWN, dataset.Tiny.RWVocab, 101),
	}, dataset.Tiny)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkQueryBloomLearned measures one learned-filter membership query
// (Table 11 row).
func BenchmarkQueryBloomLearned(b *testing.B) {
	s := bloomSuite(b)
	v := &s.Variants[1] // CLSM
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Contains(s.Md.Positive[i%len(s.Md.Positive)])
	}
}

// ---------------------------------------------------------------------------
// Inference fast-path benchmarks: the φ-table / φ-cache / batched execution
// modes on the uncompressed cardinality-shaped model, set size 8. The
// acceptance bar is BenchmarkInferencePhiTable ≥5× faster per op than
// BenchmarkInferenceUncached (outputs are bit-identical; see
// deepsets.TestAccelBitIdentical and the "inference" experiment).

func inferenceFixture(b *testing.B) *bench.InferenceFixture {
	b.Helper()
	f, err := bench.BuildInferenceFixture(false, uint32(dataset.Tiny.RWVocab-1), 8, 256, 7)
	if err != nil {
		b.Fatal(err)
	}
	return f
}

// BenchmarkInferenceUncached runs φ and ρ's first weight matrix from
// scratch for every element.
func BenchmarkInferenceUncached(b *testing.B) {
	f := inferenceFixture(b)
	f.Model.SetPhiAccel(nil)
	p := f.Model.NewPredictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(f.Queries[i%len(f.Queries)])
	}
}

// BenchmarkInferencePhiTable reads each element's row W₁·φ from the
// precomputed table.
func BenchmarkInferencePhiTable(b *testing.B) {
	f := inferenceFixture(b)
	f.Model.SetPhiAccel(f.Model.BuildPhiTable())
	p := f.Model.NewPredictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(f.Queries[i%len(f.Queries)])
	}
}

// BenchmarkInferencePhiCache reads rows through the sharded cache, sized to
// half the table so eviction stays on the measured path.
func BenchmarkInferencePhiCache(b *testing.B) {
	f := inferenceFixture(b)
	f.Model.SetPhiAccel(f.Model.NewPhiCache(deepsets.PhiTableBytes(f.Model.Config())/2, 0))
	p := f.Model.NewPredictor()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Predict(f.Queries[i%len(f.Queries)])
	}
}

// BenchmarkInferenceBatchPhiTable answers the whole 256-query workload per
// iteration through PredictBatch over the φ-table; ns/op is per batch, so
// per-query cost is ns/op ÷ 256.
func BenchmarkInferenceBatchPhiTable(b *testing.B) {
	f := inferenceFixture(b)
	f.Model.SetPhiAccel(f.Model.BuildPhiTable())
	p := f.Model.NewPredictor()
	dst := make([]float64, len(f.Queries))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PredictBatch(dst, f.Queries)
	}
}

// BenchmarkQueryBloomTraditional measures the traditional Bloom filter.
func BenchmarkQueryBloomTraditional(b *testing.B) {
	s := bloomSuite(b)
	f := s.Filters[0.01]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Contains(s.Md.Positive[i%len(s.Md.Positive)])
	}
}
