package deepsets

import (
	"testing"

	"setlearn/internal/sets"
)

// TestPhiCacheCounterSemantics pins the audited hit/miss accounting of
// PhiCache against the scalar and batched prediction paths. The contract:
// hits+misses count *cache probes*, one per row request that reaches
// the cache — not per element occurrence. On the PredictBatch memo path a
// repeated element id within one batch probes the cache exactly once (the
// per-batch memo serves the repeats), so batches cannot double-count: a
// batch with D distinct ids moves the counters by exactly D.
func TestPhiCacheCounterSemantics(t *testing.T) {
	m := newTestModel(t, false)
	cache := m.NewPhiCache(1<<20, 4) // big enough to never evict
	m.SetPhiAccel(cache)
	p := m.NewPredictor()

	counters := func() (hits, misses uint64) {
		st := cache.Stats()
		return st.Hits, st.Misses
	}

	// Scalar path: one probe per element per call.
	q := sets.New(1, 2, 3, 4, 5)
	p.Predict(q)
	if h, ms := counters(); h != 0 || ms != 5 {
		t.Fatalf("first scalar query: hits=%d misses=%d, want 0/5", h, ms)
	}
	p.Predict(q)
	if h, ms := counters(); h != 5 || ms != 5 {
		t.Fatalf("second scalar query: hits=%d misses=%d, want 5/5", h, ms)
	}

	// Batch memo path: three copies of the same two-element query probe
	// the cache once per distinct id, not once per occurrence.
	q2 := sets.New(10, 11)
	qs := []sets.Set{q2, q2, q2}
	p.PredictBatch(nil, qs)
	if h, ms := counters(); h != 5 || ms != 7 {
		t.Fatalf("first batch: hits=%d misses=%d, want 5/7 (2 new misses for 6 element occurrences)", h, ms)
	}
	p.PredictBatch(nil, qs)
	if h, ms := counters(); h != 7 || ms != 7 {
		t.Fatalf("second batch: hits=%d misses=%d, want 7/7 (2 new hits)", h, ms)
	}

	// Overlapping queries within one batch share the memo too.
	qs = []sets.Set{sets.New(20, 21), sets.New(21, 22), sets.New(20, 22)}
	p.PredictBatch(nil, qs)
	if h, ms := counters(); h != 7 || ms != 10 {
		t.Fatalf("overlap batch: hits=%d misses=%d, want 7/10 (3 distinct ids)", h, ms)
	}

	// A fresh batch re-probes: the memo dies with the batch, the cache
	// persists, so the same three ids now count as hits.
	p.PredictBatch(nil, qs)
	if h, ms := counters(); h != 10 || ms != 10 {
		t.Fatalf("repeat overlap batch: hits=%d misses=%d, want 10/10", h, ms)
	}

	// Entries reflect distinct ids ever inserted (no eviction at this size).
	if st := cache.Stats(); st.Entries != 10 {
		t.Fatalf("entries=%d, want 10 distinct ids", st.Entries)
	}
}

// TestPhiCacheMissThenInsertRace documents the one intentional slack in
// the accounting: a probe that misses runs φ outside the lock, so two
// goroutines racing on a cold id may both count a miss for one resulting
// entry. Misses can therefore exceed distinct-ids under concurrency —
// they count probe outcomes, not insertions. Sequentially the two are
// equal, which is what the stats-driven tests rely on.
func TestPhiCacheMissThenInsertRace(t *testing.T) {
	m := newTestModel(t, false)
	cache := m.NewPhiCache(1<<20, 4)
	m.SetPhiAccel(cache)
	pool := m.NewPredictorPool()
	q := sets.New(100, 101, 102)
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		go func() {
			for i := 0; i < 50; i++ {
				pool.Predict(q)
			}
			done <- struct{}{}
		}()
	}
	for g := 0; g < 4; g++ {
		<-done
	}
	st := cache.Stats()
	if st.Entries != 3 {
		t.Fatalf("entries=%d, want 3", st.Entries)
	}
	if st.Misses < 3 {
		t.Fatalf("misses=%d, want ≥ 3", st.Misses)
	}
	if st.Hits+st.Misses != 4*50*3 {
		t.Fatalf("hits+misses=%d, want exactly one probe per element occurrence (600)", st.Hits+st.Misses)
	}
}
