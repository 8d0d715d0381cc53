package deepsets

import (
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"setlearn/internal/nn"
	"setlearn/internal/sets"
)

// phiFixtureModel builds a model for one pooling × compression combination.
// Random weights suffice: the fast path must match the slow path bit for
// bit regardless of training. ρ's first layer (20 wide) is wider than φ's
// output (12), so the folded rows and φ differ in width.
func phiFixtureModel(tb testing.TB, pool Pooling, compressed bool) *Model {
	tb.Helper()
	m, err := New(Config{
		MaxID: 700, EmbedDim: 6, PhiHidden: []int{12}, PhiOut: 12,
		RhoHidden: []int{20}, Compressed: compressed, Pool: pool,
		OutputAct: nn.Sigmoid, Seed: 23,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

func phiFixtureQueries(n, maxID int, seed int64) []sets.Set {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]sets.Set, n)
	for i := range qs {
		ids := make([]uint32, 1+rng.Intn(6))
		for j := range ids {
			ids[j] = uint32(rng.Intn(maxID + 1))
		}
		qs[i] = sets.New(ids...)
	}
	return qs
}

// TestAccelBitIdentical is the central fast-path guarantee: with a PhiTable
// or a sharded PhiCache installed, Predict, PredictLogit, and PredictBatch
// return exactly the bits of the uncached path, for all three poolings,
// compressed and uncompressed. Under sum and mean pooling every path pools
// the folded rows W₁·φ(x); under max pooling, φ(x).
func TestAccelBitIdentical(t *testing.T) {
	pools := []Pooling{SumPool, MeanPool, MaxPool}
	for _, compressed := range []bool{false, true} {
		for _, pl := range pools {
			pl, compressed := pl, compressed
			name := pl.String()
			if compressed {
				name = "clsm/" + name
			} else {
				name = "lsm/" + name
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel()
				m := phiFixtureModel(t, pl, compressed)
				qs := phiFixtureQueries(200, int(m.Config().MaxID), 31)
				p := m.NewPredictor()

				truth := make([]float64, len(qs))
				truthLogit := make([]float64, len(qs))
				for i, q := range qs {
					truth[i] = p.Predict(q)
					truthLogit[i] = p.PredictLogit(q)
				}

				check := func(t *testing.T, mode string) {
					pred := m.NewPredictor()
					for i, q := range qs {
						if got := pred.Predict(q); got != truth[i] {
							t.Fatalf("%s: Predict(%v) = %v, uncached %v", mode, q, got, truth[i])
						}
						if got := pred.PredictLogit(q); got != truthLogit[i] {
							t.Fatalf("%s: PredictLogit(%v) = %v, uncached %v", mode, q, got, truthLogit[i])
						}
					}
					batch := pred.PredictBatch(nil, qs)
					for i := range qs {
						if batch[i] != truth[i] {
							t.Fatalf("%s: PredictBatch[%d] = %v, uncached %v", mode, i, batch[i], truth[i])
						}
					}
				}

				m.SetPhiAccel(m.BuildPhiTable())
				check(t, "table")

				// A cache far smaller than the universe forces constant
				// eviction; results must not change.
				m.SetPhiAccel(m.NewPhiCache(100*m.cfg.rowWidth()*8, 8))
				check(t, "cache")

				m.SetPhiAccel(nil)
				check(t, "uncached-batch")
			})
		}
	}
}

// TestPhiTableBytes pins the fit-test arithmetic the auto-enable logic in
// internal/core relies on: one row per id, as wide as ρ's first layer
// under sum and mean pooling (1 without a hidden ρ layer) and as wide as φ
// under max pooling.
func TestPhiTableBytes(t *testing.T) {
	for _, tc := range []struct {
		cfg  Config
		want int
	}{
		{Config{MaxID: 99, PhiOut: 16, EmbedDim: 4, RhoHidden: []int{24, 8}}, 100 * 24 * 8},
		{Config{MaxID: 99, PhiOut: 16, EmbedDim: 4, RhoHidden: []int{24}, Pool: MeanPool}, 100 * 24 * 8},
		{Config{MaxID: 99, PhiOut: 16, EmbedDim: 4}, 100 * 1 * 8},
		{Config{MaxID: 99, PhiOut: 16, EmbedDim: 4, RhoHidden: []int{24}, Pool: MaxPool}, 100 * 16 * 8},
	} {
		if got := PhiTableBytes(tc.cfg); got != tc.want {
			t.Errorf("PhiTableBytes(%v pool, ρ %v) = %d, want %d", tc.cfg.Pool, tc.cfg.RhoHidden, got, tc.want)
		}
		m, err := New(tc.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.BuildPhiTable().SizeBytes(); got != tc.want {
			t.Errorf("%v pool, ρ %v: table SizeBytes %d, want %d", tc.cfg.Pool, tc.cfg.RhoHidden, got, tc.want)
		}
	}
	st := phiFixtureModel(t, SumPool, false).BuildPhiTable().Stats()
	if st.Mode != "table" || st.Entries != 701 || st.Bytes != 701*20*8 {
		t.Fatalf("table stats: %+v", st)
	}
}

// TestPhiCacheStats exercises the hit/miss counters and the eviction path.
func TestPhiCacheStats(t *testing.T) {
	m := phiFixtureModel(t, SumPool, false)
	w := m.cfg.rowWidth()
	// 4 shards × 2 slots: 8 rows total, far below the 701-id universe.
	c := m.NewPhiCache(8*w*8, 4)
	m.SetPhiAccel(c)
	p := m.NewPredictor()
	qs := phiFixtureQueries(300, int(m.Config().MaxID), 37)
	for _, q := range qs {
		p.Predict(q)
	}
	st := c.Stats()
	if st.Mode != "cache" || st.Shards != 4 {
		t.Fatalf("cache stats: %+v", st)
	}
	if st.Misses == 0 {
		t.Fatal("expected misses on a cold cache")
	}
	if st.Entries > 8 {
		t.Fatalf("cache grew past its budget: %d entries", st.Entries)
	}
	if st.Bytes != 8*w*8 {
		t.Fatalf("cache bytes = %d, want %d", st.Bytes, 8*w*8)
	}
	// Repeated single-element queries must hit.
	q := sets.New(5)
	p.Predict(q)
	before := c.Stats().Hits
	p.Predict(q)
	if c.Stats().Hits <= before {
		t.Fatal("expected a cache hit on an immediately repeated id")
	}
}

// TestPhiCacheConcurrent hammers one sharded cache from 64 goroutines with
// a cache small enough to evict constantly, and requires every prediction to
// stay bit-identical to the uncached ground truth. Run under -race this is
// the fast path's central concurrency test.
func TestPhiCacheConcurrent(t *testing.T) {
	for _, compressed := range []bool{false, true} {
		compressed := compressed
		name := "lsm"
		if compressed {
			name = "clsm"
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			m := phiFixtureModel(t, SumPool, compressed)
			qs := phiFixtureQueries(256, int(m.Config().MaxID), 41)
			p := m.NewPredictor()
			truth := make([]float64, len(qs))
			for i, q := range qs {
				truth[i] = p.Predict(q)
			}
			// 64 rows of cache for a 701-id universe: most lookups miss
			// and the eviction cursor wraps continuously.
			m.SetPhiAccel(m.NewPhiCache(64*m.cfg.rowWidth()*8, 16))
			pool := m.NewPredictorPool()
			const goroutines, perG = 64, 200
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < perG; i++ {
						k := (g*perG + i*13) % len(qs)
						if got := pool.Predict(qs[k]); got != truth[k] {
							t.Errorf("goroutine %d: Predict(%v) = %v, want %v", g, qs[k], got, truth[k])
							return
						}
					}
				}(g)
			}
			wg.Wait()
			st := m.PhiAccel().Stats()
			if st.Hits+st.Misses == 0 {
				t.Fatal("cache saw no traffic")
			}
		})
	}
}

// TestMutationPhiAccelSwap swaps the φ-table, a φ-cache and no accel 200
// times while 4 goroutines predict through one PredictorPool, letting the
// readers serve at least 4 predictions after each swap. Every answer must
// keep the uncached bits; run with -race this checks that SetPhiAccel
// publishes an accel only once it is complete.
func TestMutationPhiAccelSwap(t *testing.T) {
	m := phiFixtureModel(t, SumPool, true)
	qs := phiFixtureQueries(64, int(m.Config().MaxID), 53)
	p := m.NewPredictor()
	truth := make([]float64, len(qs))
	for i, q := range qs {
		truth[i] = p.Predict(q)
	}
	accels := []PhiAccel{m.BuildPhiTable(), m.NewPhiCache(64*m.cfg.rowWidth()*8, 8), nil}
	pool := m.NewPredictorPool()
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := i % len(qs)
				if got := pool.Predict(qs[k]); got != truth[k] {
					t.Errorf("Predict(%v) = %v, want %v", qs[k], got, truth[k])
					return
				}
				served.Add(1)
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		m.SetPhiAccel(accels[i%len(accels)])
		for n := served.Load() + 4; served.Load() < n && !t.Failed(); {
			runtime.Gosched()
		}
	}
	close(stop)
	wg.Wait()
}

// TestPredictorPoolPanicSafety verifies the pool survives panicking queries
// without leaking predictors. sync.Pool refills itself through New, so a
// Put skipped by a panic shows only as one New call per panic: with the GC
// off (a collection empties the pool), 50 out-of-vocabulary panics per
// method must reuse the pooled predictor, and the pool must still serve
// correct answers.
func TestPredictorPoolPanicSafety(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	m := phiFixtureModel(t, SumPool, false)
	pool := m.NewPredictorPool()
	news := 0
	build := pool.pool.New
	pool.pool.New = func() any { news++; return build() }
	good := sets.New(1, 2, 3)
	want := pool.Predict(good)
	oov := sets.New(m.Config().MaxID + 1)
	for _, c := range []struct {
		name string
		call func()
	}{
		{"Predict", func() { pool.Predict(oov) }},
		{"PredictLogit", func() { pool.PredictLogit(oov) }},
		{"PredictBatch", func() { pool.PredictBatch(nil, []sets.Set{good, oov}) }},
		{"PooledVector", func() { pool.PooledVector(nil, oov) }},
	} {
		news = 0
		for i := 0; i < 50; i++ {
			func() {
				defer func() {
					if recover() == nil {
						t.Fatalf("%s: expected panic for out-of-vocabulary id", c.name)
					}
				}()
				c.call()
			}()
		}
		// Under the race detector sync.Pool drops a quarter of all Puts
		// (about 12 New calls here), so the bound leaves room for that and
		// still fails a leak, which builds a predictor on every call.
		if news > 35 {
			t.Errorf("%s: 50 panicking calls built %d predictors; the panic skipped the Put", c.name, news)
		}
		if got := pool.Predict(good); got != want {
			t.Fatalf("pool corrupted after %s panics: got %v want %v", c.name, got, want)
		}
	}
}

// TestPredictBatchMemo checks the per-batch memo resets between batches and
// does not leak results across calls with different accel states.
func TestPredictBatchMemo(t *testing.T) {
	m := phiFixtureModel(t, SumPool, false)
	p := m.NewPredictor()
	qs := phiFixtureQueries(64, int(m.Config().MaxID), 43)
	first := append([]float64(nil), p.PredictBatch(nil, qs)...)
	// Re-running the same batch through the same predictor must reproduce
	// the same bits (stale memo state would skew them).
	second := p.PredictBatch(nil, qs)
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("batch %d: %v then %v across repeated batches", i, first[i], second[i])
		}
	}
	// And single-query calls between batches see no memo at all.
	for i, q := range qs[:8] {
		if got := p.Predict(q); got != first[i] {
			t.Fatalf("single-query after batch: %v want %v", got, first[i])
		}
	}
}
