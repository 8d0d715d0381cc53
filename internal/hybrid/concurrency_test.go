package hybrid

import (
	"io"
	"sync"
	"sync/atomic"
	"testing"

	"setlearn/internal/sets"
)

// Concurrency battery for the hybrid structures: 64 goroutines of queries
// interleaved with writers driving InsertOutlier. Queries for stable keys
// must keep returning the single-threaded ground truth while the auxiliary
// structures grow — the guard the serving layer depends on. Every tenth
// read is a whole batch, which reads the aux under one read lock. Run with
// -race.

const (
	stressGoroutines = 64
	stressOpsPerG    = 100
)

func TestIndexParallelLookupWithInserts(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// Writers register updates (§7.2): fresh out-of-vocabulary sets appended
	// to the collection up front — the collection itself stays immutable
	// during the stress, as it does when serving — whose aux entries are
	// inserted concurrently with the query storm.
	freshID := f.c.MaxID() + 1
	type update struct {
		s   sets.Set
		pos int
	}
	var updates []update
	for w := 0; w < stressGoroutines*stressOpsPerG/20; w++ {
		s := sets.New(freshID + uint32(w))
		updates = append(updates, update{s: s, pos: f.c.Append(s)})
	}
	// Ground truth after the appends (they shift the estimate clamp) but
	// before any concurrent aux writes; writer sets are out-of-vocabulary,
	// so their aux entries cannot collide with these answers.
	queries := make([]sets.Set, 0, 128)
	truth := make([]int, 0, 128)
	for i, s := range f.samples {
		if i%9 != 0 {
			continue
		}
		queries = append(queries, s.Set)
		truth = append(truth, idx.Lookup(s.Set))
	}

	var next int64
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			writer := g%4 == 0 // 16 writers, 48 readers
			for i := 0; i < stressOpsPerG; i++ {
				if writer && i%5 == 0 {
					if k := int(atomic.AddInt64(&next, 1)) - 1; k < len(updates) {
						u := updates[k]
						idx.InsertOutlier(u.s, u.pos)
						if got := idx.Lookup(u.s); got != u.pos {
							t.Errorf("aux Lookup(%v) = %d after insert, want %d", u.s, got, u.pos)
							return
						}
						continue
					}
				}
				if i%10 == 9 {
					got := idx.LookupBatch(nil, queries, false)
					for k := range queries {
						if got[k] != truth[k] {
							t.Errorf("LookupBatch[%d] (%v) = %d under writes, serial %d", k, queries[k], got[k], truth[k])
							return
						}
					}
					continue
				}
				k := (g*37 + i) % len(queries)
				if got := idx.Lookup(queries[k]); got != truth[k] {
					t.Errorf("Lookup(%v) = %d under writes, serial %d", queries[k], got, truth[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	// Accessors that walk the aux tree must also be safe post-stress.
	if idx.AuxLen() == 0 {
		t.Fatal("writers inserted nothing")
	}
	if _, aux, _ := idx.MemoryBreakdown(); aux == 0 {
		t.Fatal("aux memory unaccounted")
	}
}

func TestEstimatorParallelEstimateWithInserts(t *testing.T) {
	f := buildFixture(t, 90)
	est := BuildEstimator(f.model, f.scaler, f.guided)
	queries := make([]sets.Set, 0, 128)
	truth := make([]float64, 0, 128)
	for i, s := range f.samples {
		if i%9 != 0 {
			continue
		}
		queries = append(queries, s.Set)
		truth = append(truth, est.Estimate(s.Set))
	}
	freshID := f.c.MaxID() + 1

	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			writer := g%4 == 0
			for i := 0; i < stressOpsPerG; i++ {
				if writer && i%5 == 0 {
					s := sets.New(freshID + uint32(g*stressOpsPerG+i))
					card := float64(g + i)
					est.InsertOutlier(s, card)
					if got := est.Estimate(s); got != card {
						t.Errorf("aux Estimate(%v) = %v after insert, want %v", s, got, card)
						return
					}
					continue
				}
				if i%10 == 8 {
					// Both range over the outlier map the writers grow.
					if est.SizeBytes() <= 0 {
						t.Error("SizeBytes <= 0 under writes")
						return
					}
					if i%50 != 8 {
						continue
					}
					if err := est.Save(io.Discard); err != nil {
						t.Errorf("Save under writes: %v", err)
						return
					}
					continue
				}
				if i%10 == 9 {
					got := est.EstimateBatch(nil, queries)
					for k := range queries {
						if got[k] != truth[k] {
							t.Errorf("EstimateBatch[%d] (%v) = %v under writes, serial %v", k, queries[k], got[k], truth[k])
							return
						}
					}
					continue
				}
				k := (g*37 + i) % len(queries)
				if got := est.Estimate(queries[k]); got != truth[k] {
					t.Errorf("Estimate(%v) = %v under writes, serial %v", queries[k], got, truth[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()

	if est.AuxLen() == 0 {
		t.Fatal("writers inserted nothing")
	}
}

func BenchmarkIndexLookupParallel(b *testing.B) {
	f := buildFixture(b, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		b.Fatal(err)
	}
	q := f.samples[0].Set
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			idx.Lookup(q)
		}
	})
}

func BenchmarkEstimatorEstimateParallel(b *testing.B) {
	f := buildFixture(b, 90)
	est := BuildEstimator(f.model, f.scaler, f.guided)
	q := f.samples[0].Set
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			est.Estimate(q)
		}
	})
}
