package server

import (
	"expvar"
	"fmt"
	"sync"
	"time"
)

// Per-endpoint expvar instrumentation. Variables are package-level because
// expvar.Publish panics on duplicate names and several Server instances may
// coexist in one process (tests); counters are cumulative per process, the
// normal expvar convention.
//
// Published names:
//
//	setlearn.<endpoint>.requests    HTTP requests received
//	setlearn.<endpoint>.queries     individual queries answered (batch items count)
//	setlearn.<endpoint>.errors      requests rejected with a 4xx/5xx
//	setlearn.<endpoint>.latency_us  histogram map: le_50 … le_50000, inf, plus sum and count
type endpointMetrics struct {
	requests *expvar.Int
	queries  *expvar.Int
	errors   *expvar.Int

	latency *expvar.Map // cumulative histogram over request latency in µs
	buckets []*expvar.Int
	sumUS   *expvar.Int
	count   *expvar.Int
}

// latencyBucketsUS are the upper bounds (inclusive, in microseconds) of the
// cumulative latency histogram; an "inf" bucket catches the rest. The range
// brackets the paper's microsecond-scale point queries (Tables 4/8/11) up
// to slow outliers.
var latencyBucketsUS = []int64{50, 100, 250, 500, 1000, 2500, 5000, 10000, 50000}

func newEndpointMetrics(name string) *endpointMetrics {
	m := &endpointMetrics{
		requests: expvar.NewInt("setlearn." + name + ".requests"),
		queries:  expvar.NewInt("setlearn." + name + ".queries"),
		errors:   expvar.NewInt("setlearn." + name + ".errors"),
		latency:  expvar.NewMap("setlearn." + name + ".latency_us"),
		sumUS:    new(expvar.Int),
		count:    new(expvar.Int),
	}
	for _, ub := range latencyBucketsUS {
		b := new(expvar.Int)
		m.buckets = append(m.buckets, b)
		m.latency.Set(fmt.Sprintf("le_%d", ub), b)
	}
	inf := new(expvar.Int)
	m.buckets = append(m.buckets, inf)
	m.latency.Set("inf", inf)
	m.latency.Set("sum", m.sumUS)
	m.latency.Set("count", m.count)
	return m
}

// observe records one request's latency into the cumulative histogram.
func (m *endpointMetrics) observe(d time.Duration) {
	us := d.Microseconds()
	for i, ub := range latencyBucketsUS {
		if us <= ub {
			m.buckets[i].Add(1)
		}
	}
	m.buckets[len(m.buckets)-1].Add(1) // inf
	m.sumUS.Add(us)
	m.count.Add(1)
}

// metricsFor lazily creates one metrics set per endpoint name, shared by
// every Server in the process.
var (
	registryMu       sync.Mutex
	endpointRegistry = map[string]*endpointMetrics{}
)

func metricsFor(name string) *endpointMetrics {
	registryMu.Lock()
	defer registryMu.Unlock()
	if m, ok := endpointRegistry[name]; ok {
		return m
	}
	m := newEndpointMetrics(name)
	endpointRegistry[name] = m
	return m
}

// Structure stats are published as expvar Funcs. Each name is registered
// once (expvar.Publish panics on duplicates); each new Server swaps the
// closure it reads, so /debug/vars always reflects the most recently served
// structures. Published names:
//
//	setlearn.<endpoint>.phi    φ fast-path stats
//	setlearn.shard.<endpoint>  per-shard stats of a partitioned container (a
//	                           list with one entry per shard: sets, bytes,
//	                           queries routed, φ mode); a monolithic
//	                           structure renders as []
//	setlearn.delta.<endpoint>  per-structure core.DeltaStats (pending inserts,
//	                           absorbed count, oldest pending age); a structure
//	                           without a write surface renders {"mode":"static"}
//	setlearn.delta.size        pending inserts summed across the served
//	                           structures — the number a background retrain
//	                           drives back to zero
//	setlearn.retrain.stats     background trainer counters (sweeps, retrains,
//	                           errors, last sweep duration); {"mode":"off"}
//	                           when no trainer is wired
var (
	funcMu sync.Mutex
	funcs  = map[string]func() any{}
)

// publishFunc makes the expvar name report fn(), registering the name on
// first use.
func publishFunc(name string, fn func() any) {
	funcMu.Lock()
	defer funcMu.Unlock()
	if _, ok := funcs[name]; !ok {
		expvar.Publish(name, expvar.Func(func() any {
			funcMu.Lock()
			f := funcs[name]
			funcMu.Unlock()
			return f()
		}))
	}
	funcs[name] = fn
}
