package bench

import (
	"strings"
	"testing"
)

func inferenceFixturePoint(speedup float64) InferencePoint {
	return InferencePoint{
		Config: "lsm", SetSize: 8,
		UncachedUS: 12, TableUS: 12 / speedup, BatchTableUS: 12 / speedup,
		TableSpeedup: speedup, BatchSpeedup: speedup,
	}
}

func TestGateInferencePassesWithinTolerance(t *testing.T) {
	base := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8)}}
	// 30% slower speedup on a 40% tolerance: no violation.
	fresh := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8 * 0.7)}}
	if vs := GateInference(base, fresh, 0.4); len(vs) != 0 {
		t.Fatalf("unexpected violations: %v", vs)
	}
}

func TestGateInferenceCatchesSpeedupRegression(t *testing.T) {
	base := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8)}}
	fresh := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(3)}}
	vs := GateInference(base, fresh, 0.4)
	if len(vs) == 0 {
		t.Fatal("halved speedup must violate")
	}
	found := false
	for _, v := range vs {
		if v.Metric == "table_speedup" && strings.Contains(v.String(), "lsm/k=8") {
			found = true
		}
	}
	if !found {
		t.Fatalf("want table_speedup violation, got %v", vs)
	}
}

func TestGateInferenceMissingPoint(t *testing.T) {
	base := &InferenceReport{Points: []InferencePoint{inferenceFixturePoint(8)}}
	fresh := &InferenceReport{}
	if vs := GateInference(base, fresh, 0.4); len(vs) != 1 || !strings.Contains(vs[0].Metric, "missing") {
		t.Fatalf("want a missing-point violation, got %v", vs)
	}
	// Fresh-only points are allowed: new configurations may appear.
	if vs := GateInference(fresh, base, 0.4); len(vs) != 0 {
		t.Fatalf("fresh-only points must pass, got %v", vs)
	}
}

func shardingFixturePoint(speedup, err float64) ShardingPoint {
	return ShardingPoint{
		Shards: 4, Partitioner: "hash",
		BuildSpeedup: speedup, MeanAbsErr: err, SingleUS: 10, BatchUS: 9,
	}
}

func TestGateSharding(t *testing.T) {
	base := &ShardingReport{Points: []ShardingPoint{shardingFixturePoint(2.7, 2.7)}}
	ok := &ShardingReport{Points: []ShardingPoint{shardingFixturePoint(2.0, 3.0)}}
	if vs := GateSharding(base, ok, 0.4); len(vs) != 0 {
		t.Fatalf("within tolerance must pass, got %v", vs)
	}
	bad := &ShardingReport{Points: []ShardingPoint{shardingFixturePoint(1.2, 9.0)}}
	vs := GateSharding(base, bad, 0.4)
	metrics := map[string]bool{}
	for _, v := range vs {
		metrics[v.Metric] = true
	}
	if !metrics["build_speedup"] || !metrics["mean_abs_err"] {
		t.Fatalf("want build_speedup and mean_abs_err violations, got %v", vs)
	}
}

// skewFixturePoint is a freq-partitioned point whose mean absolute error
// is ratio × a monolith error of 1.
func skewFixturePoint(ratio float64) ShardingPoint {
	return ShardingPoint{
		Shards: 8, Partitioner: "freq",
		BuildSpeedup: 3.5, MeanAbsErr: ratio,
		SingleUS: 10, BatchUS: 9,
	}
}

func TestGateShardingErrRatio(t *testing.T) {
	// Baseline ratio 1.5× the monolith — under the 2× acceptance ceiling.
	const tol = 0.4
	base := &ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{skewFixturePoint(1.5)}}

	// 1.8× is within both the relative tolerance and the absolute ceiling.
	ok := &ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{skewFixturePoint(1.8)}}
	if vs := GateSharding(base, ok, tol); len(vs) != 0 {
		t.Fatalf("ratio under the ceiling must pass, got %v", vs)
	}

	// 2.1× clears the tolerance-scaled relative bound (1.5×1.4+0.1 = 2.2)
	// but breaks the absolute ceiling: the headline accuracy claim must not
	// erode by tol per PR.
	over := &ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{skewFixturePoint(2.1)}}
	vs := GateSharding(base, over, tol)
	if len(vs) != 1 || vs[0].Metric != "err_ratio_ceiling" {
		t.Fatalf("want exactly the ceiling violation, got %v", vs)
	}

	// Way past both bounds: the relative check fires too.
	far := &ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{skewFixturePoint(4.0)}}
	vs = GateSharding(base, far, tol)
	metrics := map[string]bool{}
	for _, v := range vs {
		metrics[v.Metric] = true
	}
	if !metrics["err_ratio"] || !metrics["err_ratio_ceiling"] {
		t.Fatalf("want relative and ceiling violations, got %v", vs)
	}

	// A fresh run without the monolith denominator fails.
	noMono := &ShardingReport{Points: []ShardingPoint{skewFixturePoint(1.5)}}
	vs = GateSharding(base, noMono, tol)
	if len(vs) != 1 || !strings.Contains(vs[0].Metric, "monolith_err missing") {
		t.Fatalf("want a missing-monolith violation, got %v", vs)
	}

	// A baseline over the ceiling never had the claim; only the relative
	// bound applies, so a fresh ratio within tolerance of it passes.
	baseOver := &ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{skewFixturePoint(3.0)}}
	freshOver := &ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{skewFixturePoint(4.0)}}
	if vs := GateSharding(baseOver, freshOver, tol); len(vs) != 0 {
		t.Fatalf("ceiling must not apply when the baseline never met it, got %v", vs)
	}

	// Hash points are not held to the ceiling.
	hash := skewFixturePoint(1.5)
	hash.Partitioner = "hash"
	hashOver := hash
	hashOver.MeanAbsErr = 2.1
	if vs := GateSharding(&ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{hash}},
		&ShardingReport{MonolithErr: 1.0, Points: []ShardingPoint{hashOver}}, tol); len(vs) != 0 {
		t.Fatalf("hash points must not be ratio-gated, got %v", vs)
	}
}
