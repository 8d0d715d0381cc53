package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
	"setlearn/internal/shard"
)

// ShardingPoint is one measured shard count of the sharding benchmark.
type ShardingPoint struct {
	Shards       int     `json:"shards"`
	Partitioner  string  `json:"partitioner"`
	BuildSecs    float64 `json:"build_secs"`
	BuildSpeedup float64 `json:"build_speedup"` // monolith build secs / this build secs
	SizeBytes    int     `json:"size_bytes"`
	MeanAbsErr   float64 `json:"mean_abs_err"` // over the trained workload
	SingleUS     float64 `json:"single_us"`    // µs per single fan-out query
	BatchUS      float64 `json:"batch_us"`     // µs per query through EstimateBatch
}

// ShardingReport is the JSON trajectory written via BENCH_SHARDING_OUT so
// successive PRs can compare sharded build and serving cost.
type ShardingReport struct {
	Scale        string          `json:"scale"`
	Sets         int             `json:"sets"`
	MonolithSecs float64         `json:"monolith_secs"`
	MonolithErr  float64         `json:"monolith_err"` // monolith mean abs error, the accuracy denominator
	Points       []ShardingPoint `json:"points"`
}

func mbOf(bytes int) float64 { return float64(bytes) / (1024 * 1024) }

// shardingBase is the un-scaled model every configuration starts from; the
// builder divides every model dimension by √K (ScaleSqrtK), which is where
// the single-core build speedup comes from. The widths are deliberately on
// the paper's serving-model end of the range: sharding pays off when model
// math dominates the build, not for toy widths where per-example overhead
// does.
func shardingBase(sc dataset.Scale) core.ModelOptions {
	return core.ModelOptions{
		EmbedDim: 32, PhiHidden: []int{192}, PhiOut: 64, RhoHidden: []int{192},
		Epochs: sc.Epochs, LR: 0.01, Workers: 1, Seed: 21,
	}
}

// shardingWorkload stride-samples ≤256 trained subsets with their true
// cardinalities — the accuracy workload every sharding point is judged on.
func shardingWorkload(st *dataset.SubsetStats) (qs []sets.Set, truth []float64) {
	stride := len(st.Keys)/256 + 1
	for i := 0; i < len(st.Keys); i += stride {
		info := st.ByKey[st.Keys[i]]
		qs = append(qs, info.Set)
		truth = append(truth, float64(info.Card))
	}
	return qs, truth
}

// shardingErr measures mean |estimate − truth| over the trained workload.
func shardingErr(est core.CardinalityQuerier, st *dataset.SubsetStats) float64 {
	qs, truth := shardingWorkload(st)
	var sum float64
	for i, q := range qs {
		sum += math.Abs(est.Estimate(q) - truth[i])
	}
	return sum / float64(len(qs))
}

// shardingErrAndLatency measures mean |estimate − truth| over the trained
// workload plus per-query latency of the single and batched paths.
func shardingErrAndLatency(est core.CardinalityQuerier, st *dataset.SubsetStats) (meanErr, singleUS, batchUS float64) {
	qs, _ := shardingWorkload(st)
	meanErr = shardingErr(est, st)

	reps := inferenceReps(len(qs))
	singleUS = usPerQuery(reps, len(qs), func() {
		for _, q := range qs {
			est.Estimate(q)
		}
	})
	dst := make([]float64, len(qs))
	batchUS = usPerQuery(reps, len(qs), func() {
		est.EstimateBatch(dst, qs)
	})
	return meanErr, singleUS, batchUS
}

// RunSharding measures the partitioned cardinality container (internal/shard)
// against the monolithic build on the RW collection: wall-clock build time at
// K ∈ {1, 2, 4, 8} hash shards with √K model scaling, the accuracy cost of
// the smaller per-shard models, and single/batched fan-out query latency.
// The skew-aware partitioners (freq, cluster) are then measured at
// K ∈ {2, 4, 8}. When BENCH_SHARDING_OUT names a file, the points are also
// written there as JSON.
func RunSharding(w io.Writer, sc dataset.Scale) error {
	c := dataset.GenerateRW(sc.RWN, sc.RWVocab, 1)
	st := dataset.CollectSubsets(c, sc.MaxSubset)
	base := shardingBase(sc)

	rep := &Report{
		Title:  fmt.Sprintf("Sharded estimator (scale=%s, n=%d): build and fan-out cost vs monolith", sc.Name, c.Len()),
		Header: []string{"Shards", "Part", "Build s", "Speedup", "MB", "MeanAbsErr", "Single µs", "Batch µs"},
		Notes: []string{
			"√K model scaling: per-shard hidden widths shrink with K, so the build",
			"speedup holds on a single core; the error column shows the price of the",
			"smaller per-shard models on the trained workload.",
		},
	}

	start := time.Now()
	mono, err := core.BuildEstimator(c, core.EstimatorOptions{
		Model: base, MaxSubset: sc.MaxSubset, Percentile: 90,
	})
	if err != nil {
		return err
	}
	monoSecs := time.Since(start).Seconds()
	out := ShardingReport{Scale: sc.Name, Sets: c.Len(), MonolithSecs: monoSecs}

	monoErr, monoSingle, monoBatch := shardingErrAndLatency(mono, st)
	out.MonolithErr = monoErr
	rep.AddRow("mono", "-", monoSecs, fmt.Sprintf("%.2f", 1.0), mbOf(mono.SizeBytes()), monoErr, monoSingle, monoBatch)

	measure := func(k int, p shard.Partitioner) error {
		start := time.Now()
		se, err := shard.BuildShardedEstimator(c, shard.Options{
			Shards: k, Partitioner: p,
		}, core.EstimatorOptions{
			Model: base, MaxSubset: sc.MaxSubset, Percentile: 90,
		})
		if err != nil {
			return err
		}
		secs := time.Since(start).Seconds()
		meanErr, singleUS, batchUS := shardingErrAndLatency(se, st)
		pt := ShardingPoint{
			Shards: k, Partitioner: p.String(),
			BuildSecs: secs, BuildSpeedup: monoSecs / secs,
			SizeBytes: se.SizeBytes(), MeanAbsErr: meanErr,
			SingleUS: singleUS, BatchUS: batchUS,
		}
		out.Points = append(out.Points, pt)
		rep.AddRow(k, pt.Partitioner, secs, fmt.Sprintf("%.2f", pt.BuildSpeedup),
			mbOf(se.SizeBytes()), pt.MeanAbsErr, singleUS, batchUS)
		return nil
	}

	for _, k := range []int{1, 2, 4, 8} {
		if err := measure(k, shard.HashBySet); err != nil {
			return err
		}
	}
	for _, p := range []shard.Partitioner{shard.FrequencyBand, shard.EmbedCluster} {
		for _, k := range []int{2, 4, 8} {
			if err := measure(k, p); err != nil {
				return err
			}
		}
	}

	if path := os.Getenv("BENCH_SHARDING_OUT"); path != "" {
		blob, err := json.MarshalIndent(out, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(path, append(blob, '\n'), 0o644); err != nil {
			return fmt.Errorf("bench: write %s: %w", path, err)
		}
		rep.Notes = append(rep.Notes, "JSON written to "+path)
	}
	return rep.Render(w)
}
