package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
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

// usPerQuery times reps passes over n queries and returns µs per query.
func usPerQuery(reps, n int, pass func()) float64 {
	start := time.Now()
	for r := 0; r < reps; r++ {
		pass()
	}
	return time.Since(start).Seconds() * 1e6 / float64(reps*n)
}

// RunInference measures per-query latency of the four inference modes —
// uncached, precomputed φ-table, sharded φ-cache, and PredictBatch over the
// φ-table — across set sizes and both model variants, verifying that every
// fast-path answer is bit-identical to the uncached one. When the
// BENCH_INFERENCE_OUT environment variable names a file, the points are
// also written there as JSON.
func RunInference(w io.Writer, sc dataset.Scale) error {
	maxID := uint32(sc.RWVocab - 1)
	rep := &Report{
		Title:  fmt.Sprintf("Inference fast path (scale=%s, universe=%d): µs per query", sc.Name, maxID+1),
		Header: []string{"Config", "k", "Uncached", "PhiTable", "PhiCache", "Batch+Table", "Table ×", "Batch ×"},
		Notes: []string{
			"PhiTable precomputes φ for the whole universe; PhiCache is the sharded",
			"fixed-size fallback (sized to half the universe here, so it evicts).",
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
					if got := p.Predict(q); got != truth[i] { //lint:allow floateq -- bit-identity assertion: the phi fast path guarantees bit-equal outputs
						return fmt.Errorf("bench: inference %s/%s k=%d: %v != uncached %v", config, mode, k, got, truth[i])
					}
				}
				return nil
			}

			m.SetPhiAccel(nil)
			uncached := usPerQuery(reps, len(qs), func() {
				for _, q := range qs {
					p.Predict(q)
				}
			})

			m.SetPhiAccel(m.BuildPhiTable())
			if err := verify("table"); err != nil {
				return err
			}
			table := usPerQuery(reps, len(qs), func() {
				for _, q := range qs {
					p.Predict(q)
				}
			})
			batchDst := make([]float64, len(qs))
			batch := usPerQuery(reps, len(qs), func() {
				p.PredictBatch(batchDst, qs)
			})
			for i := range qs {
				if batchDst[i] != truth[i] { //lint:allow floateq -- bit-identity assertion: the phi fast path guarantees bit-equal outputs
					return fmt.Errorf("bench: inference %s/batch k=%d: %v != uncached %v", config, k, batchDst[i], truth[i])
				}
			}

			// Half-universe cache: real eviction traffic, not a disguised table.
			m.SetPhiAccel(m.NewPhiCache(int(maxID+1)/2*m.Config().PhiOut*8, 0))
			if err := verify("cache"); err != nil {
				return err
			}
			cache := usPerQuery(reps, len(qs), func() {
				for _, q := range qs {
					p.Predict(q)
				}
			})

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
