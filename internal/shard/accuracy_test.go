package shard

import (
	"math"
	"sync"
	"testing"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// The shard-accuracy battery: on a seeded Zipf fixture shaped like the bench
// harness (trained-subset workload, stride-sampled — the regime the committed
// BENCH_sharding.json acceptance measures), a sharded estimator must stay
// within 2x the monolith's mean absolute error at K ∈ {2, 4, 8}, for both
// skew-aware partitioners. The structural battery's shared fixture is too
// small and dense for accuracy claims: with 150 sets over 240 elements
// every common pair is supported in most shards, so the sum fan-in
// multiplies irreducible per-shard model noise by K. This fixture
// matches the bench generator's shape instead.

var (
	accOnce  sync.Once
	accCol   *sets.Collection
	accStats *dataset.SubsetStats
)

// accuracyFixture returns the battery's Zipf collection and its complete
// trained-subset enumeration, built once per test binary.
func accuracyFixture() (*sets.Collection, *dataset.SubsetStats) {
	accOnce.Do(func() {
		accCol = dataset.GenerateRW(400, 600, 71)
		accStats = dataset.CollectSubsets(accCol, testMaxSubset)
	})
	return accCol, accStats
}

// accuracyModel trains at enough capacity for the per-shard models' outputs
// to carry signal (the shared fixture's 3-epoch models are deliberately
// weak to keep the structural battery fast; accuracy claims need the real
// thing, scaled down from the bench config).
func accuracyModel() core.ModelOptions {
	return core.ModelOptions{
		EmbedDim: 16, PhiHidden: []int{96}, PhiOut: 32, RhoHidden: []int{96},
		Epochs: 10, LR: 0.01, Workers: 1, Seed: 9,
	}
}

// accuracyWorkload stride-samples up to 256 trained subsets with their true
// cardinalities, exactly as the bench harness judges accuracy.
func accuracyWorkload(st *dataset.SubsetStats) (qs []sets.Set, truth []float64) {
	stride := len(st.Keys)/256 + 1
	for i := 0; i < len(st.Keys); i += stride {
		info := st.ByKey[st.Keys[i]]
		qs = append(qs, info.Set)
		truth = append(truth, float64(info.Card))
	}
	return qs, truth
}

func workloadMAE(qs []sets.Set, truth []float64, f func(sets.Set) float64) float64 {
	var sum float64
	for i, q := range qs {
		sum += math.Abs(f(q) - truth[i])
	}
	return sum / float64(len(qs))
}

// TestAccuracyCalibratedVsMonolith holds the sharded estimator's serving
// path to the 2x-monolith accuracy bar. The name is kept from when the bar
// was measured with per-shard calibration curves; the bar is unchanged.
func TestAccuracyCalibratedVsMonolith(t *testing.T) {
	c, st := accuracyFixture()
	qs, truth := accuracyWorkload(st)
	mono, err := core.BuildEstimator(c, core.EstimatorOptions{
		Model: accuracyModel(), MaxSubset: testMaxSubset, Percentile: 90,
	})
	if err != nil {
		t.Fatalf("monolith estimator: %v", err)
	}
	monoMAE := workloadMAE(qs, truth, mono.Estimate)
	t.Logf("monolith MAE = %.4f over %d trained subsets", monoMAE, len(qs))
	for _, p := range []Partitioner{FrequencyBand, EmbedCluster} {
		for _, k := range []int{2, 4, 8} {
			k, p := k, p
			t.Run(cacheKey(k, p), func(t *testing.T) {
				se, err := BuildShardedEstimator(c, Options{Shards: k, Partitioner: p}, core.EstimatorOptions{
					Model: accuracyModel(), MaxSubset: testMaxSubset, Percentile: 90,
				})
				if err != nil {
					t.Fatalf("sharded estimator K=%d %s: %v", k, p, err)
				}
				mae := workloadMAE(qs, truth, se.Estimate)
				t.Logf("K=%d %s MAE = %.4f (%.2fx monolith)", k, p, mae, mae/monoMAE)
				if mae > 2*monoMAE+1e-9 {
					t.Fatalf("sharded MAE %.4f exceeds 2x monolith %.4f", mae, monoMAE)
				}
			})
		}
	}
}
