package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// tinyConfig runs a workload at dataset.Tiny sizes for half a second.
func tinyConfig(t *testing.T, workload string, trace bool) config {
	cfg := defaultConfig()
	cfg.workload, cfg.trace = workload, trace
	cfg.spansOut = filepath.Join(t.TempDir(), "spans.json")
	cfg.sets, cfg.vocab = dataset.Tiny.RWN, dataset.Tiny.RWVocab
	cfg.maxSubset, cfg.epochs = dataset.Tiny.MaxSubset, dataset.Tiny.Epochs
	cfg.seconds, cfg.warmup = 0.5, 100*time.Millisecond
	cfg.setups, cfg.poolSize, cfg.prefill = 1, 256, 100
	return cfg
}

type named struct{ Name, Unit string }

type benchmarkFile struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

type jsonResult struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runTiny runs cfg and returns the printed lines and the parsed last line.
func runTiny(t *testing.T, cfg config) (*result, []string, jsonResult) {
	t.Helper()
	var out bytes.Buffer
	res, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("%s: %v", cfg.workload, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var jr jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &jr); err != nil {
		t.Fatalf("%s: last line is not the JSON result: %v\n%s", cfg.workload, err, out.String())
	}
	return res, lines, jr
}

// TestEveryWorkloadPrintsEveryMetric runs each workload BENCHMARK.json lists,
// untraced and traced, and checks that every metric it names is printed with
// its unit and is in the JSON result, and that nothing failed.
func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	b, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		for _, trace := range []bool{false, true} {
			res, lines, jr := runTiny(t, tinyConfig(t, w.Name, trace))
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			if len(jr.Metrics) != len(want) {
				t.Errorf("%s trace=%v: JSON has %d metrics, BENCHMARK.json names %d", w.Name, trace, len(jr.Metrics), len(want))
			}
			for _, m := range want {
				if got, ok := jr.Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: JSON metric %s = %+v, want unit %s", w.Name, trace, m.Name, got, m.Unit)
				}
			}
			for _, m := range append(append([]named{}, bf.EndToEnd...), named{"error_rate", "ratio"}) {
				if !printed(lines, m) {
					t.Errorf("%s trace=%v: no line prints %s in %s", w.Name, trace, m.Name, m.Unit)
				}
			}
			if res.failed != 0 || res.errorRate() != 0 || !jr.Correct || jr.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d failed:\n%s", w.Name, trace, res.failed, res.attempted, strings.Join(lines, "\n"))
			}
		}
	}
}

func printed(lines []string, m named) bool {
	for _, l := range lines {
		if f := strings.Fields(l); len(f) >= 3 && f[0] == m.Name && f[2] == m.Unit {
			return true
		}
	}
	return false
}

// offByOne is a seeded fault: an index that answers one position late.
type offByOne struct{ core.IndexQuerier }

func (o offByOne) LookupBatch(dst []int, qs []sets.Set, equal bool) []int {
	dst = o.IndexQuerier.LookupBatch(dst, qs, equal)
	for i, p := range dst {
		if p >= 0 {
			dst[i] = p + 1
		}
	}
	return dst
}

// TestOffByOneIndexFailsTheRun proves the oracle catches what it exists to
// catch: a served index off by one position must fail the run.
func TestOffByOneIndexFailsTheRun(t *testing.T) {
	cfg := tinyConfig(t, "point", false)
	cfg.wrapIndex = func(x core.IndexQuerier) core.IndexQuerier { return offByOne{x} }
	res, _, jr := runTiny(t, cfg)
	if res.errorRate() <= 0 || exitCode(res) == 0 || jr.Correct || jr.Failed == 0 {
		t.Fatalf("off-by-one index passed: error rate %g, exit %d, JSON %+v", res.errorRate(), exitCode(res), jr)
	}
}

// TestOwnWriteCheck pins the read-own-write rule: the index may answer the
// other client's later insert of the same set only if it is no later than
// the writer's own position.
func TestOwnWriteCheck(t *testing.T) {
	c := sets.NewCollection([]sets.Set{sets.New(1, 2), sets.New(3, 4)})
	s := sets.New(5, 6)
	a := &client{inserted: []insertRecord{{pos: 3, set: s}}}
	b := &client{inserted: []insertRecord{{pos: 2, set: s}}}
	q := sets.New(5)
	for _, tc := range []struct {
		answer float64
		bad    int
	}{
		{3, 0},  // the writer's own position
		{2, 0},  // the other client's earlier insert of a superset
		{4, 1},  // past the writer's position
		{1, 1},  // a built set that does not contain q
		{-1, 1}, // not found
	} {
		a.ownReads = []ownRead{{kind: kIndex, q: q, answer: tc.answer, writerPos: 3}}
		if got := checkOwnWrites(c, nil, []*client{a, b}); got != tc.bad {
			t.Errorf("answer %v: %d violations, want %d", tc.answer, got, tc.bad)
		}
	}
}
