package core

import (
	"math/rand"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// fastPathQueries mixes in-vocabulary subsets, full sets, and unseen
// combinations — the batch endpoints must agree with the per-query path on
// all of them.
func fastPathQueries(c *sets.Collection, n int, seed int64) []sets.Set {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]sets.Set, n)
	maxID := int(c.MaxID())
	for i := range qs {
		if i%3 == 0 {
			s := c.At(rng.Intn(c.Len()))
			k := 1 + rng.Intn(len(s))
			qs[i] = sets.New(s[:k]...)
			continue
		}
		ids := make([]uint32, 1+rng.Intn(3))
		for j := range ids {
			ids[j] = uint32(rng.Intn(maxID + 1))
		}
		qs[i] = sets.New(ids...)
	}
	return qs
}

// TestEstimatorFastPathEquivalence drives one estimator through all three
// accel modes and both call shapes, requiring bit-identical answers:
// disabling the auto-enabled accel gives ground truth, then the table, the
// (eviction-heavy) sharded cache, and EstimateBatch must reproduce it.
func TestEstimatorFastPathEquivalence(t *testing.T) {
	c := dataset.GenerateSD(250, 40, 51)
	est, err := BuildEstimator(c, EstimatorOptions{
		Model: fastModel(false), MaxSubset: 2, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := fastPathQueries(c, 150, 52)

	if mode := est.EnableFastPath(FastPathOptions{}); mode != "off" {
		t.Fatalf("disable returned mode %q", mode)
	}
	if _, ok := est.PhiStats(); ok {
		t.Fatal("PhiStats must report ok=false when disabled")
	}
	truth := make([]float64, len(qs))
	for i, q := range qs {
		truth[i] = est.Estimate(q)
	}

	for _, tc := range []struct {
		opts FastPathOptions
		mode string
	}{
		{FastPathOptions{TableBudgetBytes: 1 << 30}, "table"},
		// A budget of 0 forces the cache. One 16-wide slot per lock shard
		// (64) is below the universe, so ids sharing a shard evict each
		// other.
		{FastPathOptions{CacheBytes: 64 * 16 * 8}, "cache"},
	} {
		if mode := est.EnableFastPath(tc.opts); mode != tc.mode {
			t.Fatalf("EnableFastPath(%+v) = %q, want %q", tc.opts, mode, tc.mode)
		}
		st, ok := est.PhiStats()
		if !ok || st.Mode != tc.mode {
			t.Fatalf("PhiStats after %s: %+v ok=%v", tc.mode, st, ok)
		}
		for i, q := range qs {
			if got := est.Estimate(q); got != truth[i] {
				t.Fatalf("%s: Estimate(%v) = %v, uncached %v", tc.mode, q, got, truth[i])
			}
		}
		batch := est.EstimateBatch(nil, qs)
		for i := range qs {
			if batch[i] != truth[i] {
				t.Fatalf("%s: EstimateBatch[%d] = %v, uncached %v", tc.mode, i, batch[i], truth[i])
			}
		}
		if st, _ := est.PhiStats(); st.Mode == "cache" && st.Misses <= uint64(st.Entries) {
			t.Fatalf("cache never evicted: %+v", st)
		}
	}

	// Aux overrides and out-of-vocabulary answers survive the batch path.
	est.Update(qs[0], 123)
	oov := sets.New(c.MaxID() + 10)
	mixed := []sets.Set{qs[0], oov, sets.New()}
	got := est.EstimateBatch(nil, mixed)
	if got[0] != 123 || got[1] != 0 || got[2] != 0 {
		t.Fatalf("EstimateBatch on aux/OOV/empty = %v", got)
	}
}

// TestIndexLookupBatchEquivalence checks LookupBatch against per-query
// Lookup and LookupEqual, including aux-served, out-of-vocabulary, and
// empty queries.
func TestIndexLookupBatchEquivalence(t *testing.T) {
	c := dataset.GenerateSD(250, 40, 53)
	idx, err := BuildIndex(c, IndexOptions{
		Model: fastModel(false), MaxSubset: 2, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	qs := fastPathQueries(c, 120, 54)
	qs = append(qs, sets.New(), sets.New(c.MaxID()+7), c.At(0))
	for _, equal := range []bool{false, true} {
		want := make([]int, len(qs))
		for i, q := range qs {
			if equal {
				want[i] = idx.LookupEqual(q)
			} else {
				want[i] = idx.Lookup(q)
			}
		}
		got := idx.LookupBatch(nil, qs, equal)
		for i := range qs {
			if got[i] != want[i] {
				t.Fatalf("equal=%v: LookupBatch[%d](%v) = %d, per-query %d", equal, i, qs[i], got[i], want[i])
			}
		}
	}
}

// TestFilterFusedBatchEquivalence checks the fused ContainsBatch against
// per-query Contains for serial and parallel fan-out, sandwich and plain.
func TestFilterFusedBatchEquivalence(t *testing.T) {
	c := dataset.GenerateSD(250, 40, 55)
	for _, sandwich := range []bool{false, true} {
		f, err := BuildMembershipFilter(c, FilterOptions{
			Model: fastModel(false), MaxSubset: 2, Sandwich: sandwich,
		})
		if err != nil {
			t.Fatal(err)
		}
		qs := fastPathQueries(c, 120, 56)
		qs = append(qs, sets.New(), sets.New(c.MaxID()+3))
		want := make([]bool, len(qs))
		for i, q := range qs {
			want[i] = f.Contains(q)
		}
		for _, workers := range []int{1, 4} {
			got := f.ContainsBatch(qs, workers)
			for i := range qs {
				if got[i] != want[i] {
					t.Fatalf("sandwich=%v workers=%d: ContainsBatch[%d](%v) = %v, per-query %v",
						sandwich, workers, i, qs[i], got[i], want[i])
				}
			}
		}
	}
}

// TestFastPathAutoEnabled pins the build- and load-time default: small
// universes get the full φ-table automatically.
func TestFastPathAutoEnabled(t *testing.T) {
	c := dataset.GenerateSD(200, 40, 57)
	est, err := BuildEstimator(c, EstimatorOptions{
		Model: fastModel(false), MaxSubset: 2, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	st, ok := est.PhiStats()
	if !ok || st.Mode != "table" {
		t.Fatalf("expected auto-enabled table after build, got %+v ok=%v", st, ok)
	}
	if est.MaxID() != c.MaxID() {
		t.Fatalf("MaxID() = %d, want %d", est.MaxID(), c.MaxID())
	}
}
