package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"setlearn/internal/core"
)

// config fixes one run. defaultConfig holds the committed benchmark sizes;
// tests shrink them.
type config struct {
	workload string
	seed     int64         // traffic: request mix, pool draws and insert order
	seconds  float64       // timed window (read workloads) and ingest op budget
	warmup   time.Duration // untimed traffic before the window
	trace    bool
	spansOut string

	sets, vocab int // dataset.GenerateRW collection shape
	epochs      int
	maxSubset   int
	poolSize    int // positive query pool and negative pool sizes
	setups      int // set-up repetitions; setup_s is their median
	opsPerSec   int // ingest: fixed operations per second of -seconds
	prefill     int // ingest: sets inserted before each replay of its sequence

	// wrapIndex, when set, wraps the index before it is served; tests use it
	// to inject a faulty index and prove the oracle catches it.
	wrapIndex func(core.IndexQuerier) core.IndexQuerier
}

// dataSeed fixes the collection, and with it the trained models, the query
// pool and the sets ingest inserts, so the accuracy and size metrics repeat
// exactly on every run; -seed varies only the traffic drawn from them.
const dataSeed = 1

func defaultConfig() config {
	return config{
		seed:      1,
		seconds:   10,
		warmup:    time.Second,
		sets:      1000,
		vocab:     1500,
		epochs:    4,
		maxSubset: 3,
		poolSize:  4096,
		setups:    3,
		opsPerSec: 12000,
		prefill:   5000,
	}
}

// workload is one traffic mix; doc.go says why each exists.
type workload struct {
	shards int  // 0 serves monoliths; K > 0 serves K-way HashBySet containers
	batch  int  // queries per read request
	ingest bool // a fixed op sequence with 10% inserts instead of a timed loop
}

var workloads = map[string]workload{
	"point":   {batch: 1},
	"batch":   {batch: 64},
	"sharded": {batch: 64, shards: 8},
	"ingest":  {batch: 1, ingest: true},
}

// metric is one named reading with its unit; note is printed beside it.
type metric struct {
	name  string
	value float64
	unit  string
	note  string
}

// result is what a run reports. e2e and layer hold the BENCHMARK.json
// end_to_end and per_layer metrics; extra is printed but not gated.
type result struct {
	attempted, failed int
	e2e, layer, extra []metric
}

func (r *result) errorRate() float64 {
	if r.attempted == 0 {
		return 0
	}
	return float64(r.failed) / float64(r.attempted)
}

// exitCode maps a finished run to the process status: any failed operation
// or oracle violation fails the run.
func exitCode(r *result) int {
	if r.failed > 0 {
		return 1
	}
	return 0
}

func main() {
	cfg := defaultConfig()
	flag.StringVar(&cfg.workload, "workload", "", "traffic mix: point, batch, sharded or ingest")
	flag.Int64Var(&cfg.seed, "seed", cfg.seed, "seed for the traffic: request mix, pool draws and insert order")
	flag.Float64Var(&cfg.seconds, "seconds", cfg.seconds, "timed window in seconds (ingest: its fixed op count is 12000 per second)")
	traceFlag := flag.Int("trace", 0, "1 wraps every layer in timing decorators and reports per-layer metrics")
	flag.StringVar(&cfg.spansOut, "spans", "", "span file a traced run writes (default .bench_build/spans-<workload>.json)")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if cfg.spansOut == "" {
		cfg.spansOut = filepath.Join(".bench_build", "spans-"+cfg.workload+".json")
	}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "setlearnbench:", err)
		os.Exit(2)
	}
	os.Exit(exitCode(res))
}

// run sets up, drives and measures one workload, then prints every metric
// and, as the last line, the JSON result.
func run(cfg config, out io.Writer) (*result, error) {
	w, ok := workloads[cfg.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want point, batch, sharded or ingest)", cfg.workload)
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}

	// Set up several times and serve the last; setup_s is the median.
	var s *served
	var reps []setupSteps
	for i := 0; i < cfg.setups; i++ {
		if s != nil {
			if err := s.stop(); err != nil {
				return nil, err
			}
		}
		var err error
		if s, err = setUp(cfg, w, tr); err != nil {
			return nil, err
		}
		reps = append(reps, s.steps)
	}
	res, err := measure(cfg, w, s, tr, reps)
	if err := errors.Join(err, s.stop()); err != nil {
		return nil, err
	}
	if tr != nil {
		if err := tr.writeSpans(cfg.spansOut); err != nil {
			return nil, err
		}
	}
	return res, report(out, res, cfg.trace)
}

// measure runs the accuracy pass, the warm-up, the timed window and, when
// traced, the layer probes against the served structures.
func measure(cfg config, w workload, s *served, tr *tracer, reps []setupSteps) (*result, error) {
	res := &result{}
	p := newPool(s.coll, cfg)
	acc := checkAccuracy(s, p)
	res.attempted += acc.checked
	res.failed += acc.violations

	tf := newTraffic(cfg, w, p)
	runtime.GC()
	warm := newLoadGen(s.addr, tr)
	warm.drive(tf.warm, time.Now().Add(cfg.warmup), false, false)
	warm.close()

	// The window runs as slices, each on new client connections, and every
	// traffic metric is the median slice. The ingest delta grows through its
	// sequence, so only whole sequences are alike: each of its slices runs
	// the sequence once on structures loaded afresh.
	slice := time.Duration(cfg.seconds*float64(time.Second)) / slices
	m := &meter{tr: tr}
	var parts []stats
	var samples []sample
	routed0 := routedQueries(s)
	last := s // the structures the window ended on
	for i := 0; i < slices; i++ {
		x := s
		var prefilled []insertRecord
		if w.ingest {
			var err error
			if x, err = s.reopen(cfg, w, tr); err != nil {
				return nil, err
			}
			prefilled = x.prefill(tf.prefill)
		}
		lg := newLoadGen(x.addr, tr)
		window := m.window(func() time.Duration { return lg.drive(tf.timed, time.Now().Add(slice), w.ingest, true) })
		lg.close()
		if x != s {
			if err := x.stop(); err != nil {
				return nil, err
			}
		}
		ss := lg.samples()
		samples = append(samples, ss...)
		parts = append(parts, sliceStats(ss, window))
		res.attempted += lg.attempted()
		res.failed += lg.failed() + checkOwnWrites(x.coll, prefilled, lg.clients)
		last = x
	}
	routed := routedQueries(s) - routed0

	med := medianStats(parts)
	n := fmt.Sprintf("(%d requests, median of %d slices)", len(samples), slices)
	res.e2e = []metric{
		{name: "setup_s", value: medianSetup(reps, func(st setupSteps) time.Duration { return st.total }), unit: "s"},
		{name: "queries_per_s", value: med.qps, unit: "1/s", note: n},
		{name: "latency_p50_ms", value: med.p50, unit: "ms", note: n},
		{name: "latency_p99_ms", value: med.p99, unit: "ms", note: n},
		{name: "card_qerr_mean", value: acc.qerrMean, unit: "ratio"},
		{name: "card_qerr_p95", value: acc.qerrP95, unit: "ratio"},
		{name: "member_tnr", value: 1 - acc.fpr, unit: "ratio"},
		{name: "struct_mb", value: mb(last.raw.Estimator.SizeBytes() + last.raw.Index.SizeBytes() + last.raw.Filter.SizeBytes()), unit: "MB"},
	}
	// Both are 0 when all is well, so they are printed but gated through
	// member_tnr and the result's failed count instead.
	res.extra = append(res.extra,
		metric{name: "member_fpr", value: acc.fpr, unit: "ratio"},
		metric{name: "error_rate", value: res.errorRate(), unit: "ratio",
			note: fmt.Sprintf("(%d failed of %d)", res.failed, res.attempted)})

	if tr != nil {
		if last.mono != nil {
			res.extra = append(res.extra, modelProbe(last.mono, p)...)
		}
		answered := 0
		for _, x := range samples {
			answered += x.answered
		}
		res.layer = layerMetrics(cfg, last, tr.snapshot(), reps, answered, routed, m)
	}
	return res, nil
}

// meter confines tracing and the memory statistics to the timed drives.
type meter struct {
	tr         *tracer
	alloc, gcs uint64 // bytes allocated and GC cycles completed while timed
}

func (m *meter) window(drive func() time.Duration) time.Duration {
	if m.tr == nil {
		return drive()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m.tr.on.Store(true)
	d := drive()
	m.tr.on.Store(false)
	runtime.ReadMemStats(&after)
	m.alloc += after.TotalAlloc - before.TotalAlloc
	m.gcs += uint64(after.NumGC - before.NumGC)
	return d
}

// report prints every metric by name with its unit, then the JSON line the
// harness parses: end-to-end metrics, or per-layer ones for a traced run.
func report(out io.Writer, res *result, traced bool) error {
	for _, group := range [][]metric{res.e2e, res.extra, res.layer} {
		for _, m := range group {
			if _, err := fmt.Fprintf(out, "%-34s %-14.6g %s %s\n", m.name, m.value, m.unit, m.note); err != nil {
				return err
			}
		}
	}
	gated := res.e2e
	if traced {
		gated = res.layer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(gated))
	for _, m := range gated {
		metrics[m.name] = value{m.value, m.unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}

// quantile returns the nearest-rank q-quantile of xs, sorting xs in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(float64(len(xs))*q)) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

// slices is how many parts the window runs in: equal shares of a read loop's
// window, or runs of the ingest sequence. Each traffic metric is the median
// part, so interference from the shared host during a few parts does not
// move it.
const slices = 10

// stats is one slice's answered rate and p50 and p99 request latencies.
type stats struct{ qps, p50, p99 float64 }

func sliceStats(samples []sample, window time.Duration) stats {
	lat := make([]float64, len(samples))
	answered := 0
	for i, s := range samples {
		lat[i] = s.latMS
		answered += s.answered
	}
	return stats{float64(answered) / window.Seconds(), quantile(lat, 0.50), quantile(lat, 0.99)}
}

// medianStats returns the median over parts of each of their stats.
func medianStats(parts []stats) stats {
	var qps, p50, p99 []float64
	for _, p := range parts {
		qps, p50, p99 = append(qps, p.qps), append(p50, p.p50), append(p99, p.p99)
	}
	return stats{quantile(qps, 0.5), quantile(p50, 0.5), quantile(p99, 0.5)}
}

// medianSetup returns the median over set-up repetitions of one step, in s.
func medianSetup(reps []setupSteps, step func(setupSteps) time.Duration) float64 {
	xs := make([]float64, len(reps))
	for i, st := range reps {
		xs[i] = step(st).Seconds()
	}
	return quantile(xs, 0.5)
}

func mb(bytes int) float64 { return float64(bytes) / (1 << 20) }
