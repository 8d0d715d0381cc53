package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sort"
	"time"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// InferenceFixture is a model plus a fixed query workload for measuring the
// φ fast path. Weights are randomly initialized — inference cost and the
// bit-identity contract are independent of training.
type InferenceFixture struct {
	Model   *deepsets.Model
	Queries []sets.Set
}

// BuildInferenceFixture constructs a model in the paper's cardinality shape
// (§8.1) over the universe [0, maxID] and nQueries query sets of ~setSize
// uniformly drawn elements.
func BuildInferenceFixture(compressed bool, maxID uint32, setSize, nQueries int, seed int64) (*InferenceFixture, error) {
	m, err := deepsets.New(cardModelConfig(maxID, compressed, seed))
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed + 1))
	qs := make([]sets.Set, nQueries)
	for i := range qs {
		ids := make([]uint32, setSize)
		for j := range ids {
			ids[j] = uint32(rng.Intn(int(maxID) + 1))
		}
		qs[i] = sets.New(ids...)
	}
	return &InferenceFixture{Model: m, Queries: qs}, nil
}

// InferencePoint is one measured configuration of the inference benchmark.
type InferencePoint struct {
	Config       string  `json:"config"` // "lsm" or "clsm"
	SetSize      int     `json:"set_size"`
	UncachedUS   float64 `json:"uncached_us"`
	TableUS      float64 `json:"table_us"`
	CacheUS      float64 `json:"cache_us"`
	BatchTableUS float64 `json:"batch_table_us_per_query"`
	TableSpeedup float64 `json:"table_speedup"`
	BatchSpeedup float64 `json:"batch_speedup"`
}

// InferenceReport is the JSON trajectory written to BENCH_inference.json
// (via the BENCH_INFERENCE_OUT environment variable) so successive PRs can
// compare serving latency.
type InferenceReport struct {
	Scale  string           `json:"scale"`
	MaxID  uint32           `json:"max_id"`
	Points []InferencePoint `json:"points"`
}

// inferenceReps picks repetitions so each mode runs a few thousand queries.
func inferenceReps(n int) int {
	r := 4096 / n
	if r < 1 {
		return 1
	}
	return r
}

// inferencePasses is how many timed passes each mode runs. The report keeps
// the median, so one pass slowed by a shared host does not set a point.
const inferencePasses = 5

// passUS times one pass of reps rounds over n queries and returns its µs
// per query.
func passUS(reps, n int, round func()) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		round()
	}
	return time.Since(start).Seconds() * 1e6 / float64(reps*n)
}

// medianPass returns the median of the passes' µs per query.
func medianPass(us [inferencePasses]float64) float64 {
	sort.Float64s(us[:])
	return us[inferencePasses/2]
}

// RunInference measures per-query latency of the four inference modes —
// uncached, precomputed φ-table, sharded φ-cache, and PredictBatch over the
// φ-table — across set sizes and both model variants, verifying that every
// fast-path answer is bit-identical to the uncached one. Each mode's time
// is the median of inferencePasses passes of about 4096 queries, the four
// modes' passes taken in turn. When the BENCH_INFERENCE_OUT environment
// variable names a file, the points are also written there as JSON.
func RunInference(w io.Writer, sc dataset.Scale) error {
	maxID := uint32(sc.RWVocab - 1)
	rep := &Report{
		Title:  fmt.Sprintf("Inference fast path (scale=%s, universe=%d): µs per query", sc.Name, maxID+1),
		Header: []string{"Config", "k", "Uncached", "PhiTable", "PhiCache", "Batch+Table", "Table ×", "Batch ×"},
		Notes: []string{
			"PhiTable precomputes each element's row W₁·φ (ρ's first layer folded into",
			"the sum) for the whole universe; PhiCache is the sharded fixed-size fallback",
			"(sized to half the table here, so it evicts). Uncached computes φ and W₁",
			fmt.Sprintf("per element. Each time is the median of %d passes of ~4096 queries.", inferencePasses),
			"All fast-path outputs are verified bit-identical to the uncached path.",
		},
	}
	out := InferenceReport{Scale: sc.Name, MaxID: maxID}

	for _, compressed := range []bool{false, true} {
		config := "lsm"
		if compressed {
			config = "clsm"
		}
		for _, k := range []int{2, 4, 8} {
			f, err := BuildInferenceFixture(compressed, maxID, k, 256, 7)
			if err != nil {
				return err
			}
			m, qs := f.Model, f.Queries
			reps := inferenceReps(len(qs))
			p := m.NewPredictor()

			truth := make([]float64, len(qs))
			for i, q := range qs {
				truth[i] = p.Predict(q)
			}
			verify := func(mode string) error {
				for i, q := range qs {
					if got := p.Predict(q); got != truth[i] {
						return fmt.Errorf("bench: inference %s/%s k=%d: %v != uncached %v", config, mode, k, got, truth[i])
					}
				}
				return nil
			}

			phiTable := m.BuildPhiTable()
			m.SetPhiAccel(phiTable)
			if err := verify("table"); err != nil {
				return err
			}
			batchDst := make([]float64, len(qs))
			p.PredictBatch(batchDst, qs)
			for i := range qs {
				if batchDst[i] != truth[i] {
					return fmt.Errorf("bench: inference %s/batch k=%d: %v != uncached %v", config, k, batchDst[i], truth[i])
				}
			}

			// Half-universe cache: real eviction traffic, not a disguised table.
			phiCache := m.NewPhiCache(deepsets.PhiTableBytes(m.Config())/2, 0)
			m.SetPhiAccel(phiCache)
			if err := verify("cache"); err != nil {
				return err
			}

			// Pass i of every mode runs before pass i+1 of any, so load
			// that comes and goes on a shared host lands on all four
			// modes rather than on one side of a speedup.
			single := func() {
				for _, q := range qs {
					p.Predict(q)
				}
			}
			pass := func(accel deepsets.PhiAccel, round func()) float64 {
				m.SetPhiAccel(accel)
				return passUS(reps, len(qs), round)
			}
			var uncachedUS, tableUS, cacheUS, batchUS [inferencePasses]float64
			for i := 0; i < inferencePasses; i++ {
				uncachedUS[i] = pass(nil, single)
				tableUS[i] = pass(phiTable, single)
				cacheUS[i] = pass(phiCache, single)
				batchUS[i] = pass(phiTable, func() { p.PredictBatch(batchDst, qs) })
			}
			uncached, table, cache, batch := medianPass(uncachedUS), medianPass(tableUS), medianPass(cacheUS), medianPass(batchUS)

			pt := InferencePoint{
				Config: config, SetSize: k,
				UncachedUS: uncached, TableUS: table, CacheUS: cache, BatchTableUS: batch,
				TableSpeedup: uncached / table, BatchSpeedup: uncached / batch,
			}
			out.Points = append(out.Points, pt)
			rep.AddRow(config, k, uncached, table, cache, batch,
				fmt.Sprintf("%.1f", pt.TableSpeedup), fmt.Sprintf("%.1f", pt.BatchSpeedup))
		}
	}

	if path := os.Getenv("BENCH_INFERENCE_OUT"); path != "" {
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
