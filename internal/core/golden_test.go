package core

import (
	"bytes"
	"math"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/sets"
)

// TestGoldenRoundTrip guards the `setlearn -save` → `setlearnd` handoff:
// train tiny structures at a fixed seed, save, load, and require (a) the
// loaded structure re-serializes byte-identically — the format is fully
// deterministic, nothing is lost or reordered — and (b) the built and the
// loaded structure give identical answers and identical model outputs, bit
// for bit, on a fixed query workload: the builders serve the float32
// weights a save keeps, so the bounds and backup measured at build hold
// for the loaded structure too.
func TestGoldenRoundTrip(t *testing.T) {
	c := dataset.GenerateSD(120, 30, 83)
	workload := func() []sets.Set {
		st := dataset.CollectSubsets(c, 2)
		var qs []sets.Set
		for i, k := range st.Keys {
			if i%3 == 0 {
				qs = append(qs, st.ByKey[k].Set)
			}
		}
		qs = append(qs, sets.New(c.MaxID()+5)) // out-of-vocabulary miss
		return qs
	}()
	sameModel := func(t *testing.T, built, loaded *deepsets.Model) {
		t.Helper()
		a, b := built.NewPredictor(), loaded.NewPredictor()
		for _, q := range workload {
			if q[len(q)-1] > c.MaxID() {
				continue
			}
			if x, y := a.Predict(q), b.Predict(q); math.Float64bits(x) != math.Float64bits(y) {
				t.Fatalf("model output for %v: built %v, reloaded %v", q, x, y)
			}
		}
	}

	t.Run("index", func(t *testing.T) {
		idx, err := BuildIndex(c, IndexOptions{Model: tinyModel(), MaxSubset: 2, Percentile: 90})
		if err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := idx.Save(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadIndex(bytes.NewReader(first.Bytes()), c)
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-serialization not byte-identical: %d vs %d bytes",
				first.Len(), second.Len())
		}
		for _, q := range workload {
			if a, b := idx.Lookup(q), loaded.Lookup(q); a != b {
				t.Fatalf("Lookup(%v): trained %d, reloaded %d", q, a, b)
			}
			if a, b := idx.LookupEqual(q), loaded.LookupEqual(q); a != b {
				t.Fatalf("LookupEqual(%v): trained %d, reloaded %d", q, a, b)
			}
		}
		sameModel(t, idx.Hybrid().Model(), loaded.Hybrid().Model())
	})

	t.Run("estimator", func(t *testing.T) {
		est, err := BuildEstimator(c, EstimatorOptions{Model: tinyModel(), MaxSubset: 2, Percentile: 90})
		if err != nil {
			t.Fatal(err)
		}
		if est.Hybrid().AuxLen() == 0 {
			t.Fatal("fixture must evict outliers so the aux map order matters")
		}
		var first bytes.Buffer
		if err := est.Save(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadCardinalityEstimator(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-serialization not byte-identical: %d vs %d bytes",
				first.Len(), second.Len())
		}
		for _, q := range workload {
			if a, b := est.Estimate(q), loaded.Estimate(q); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("Estimate(%v): trained %v, reloaded %v", q, a, b)
			}
		}
		sameModel(t, est.Hybrid().Model(), loaded.Hybrid().Model())
	})

	t.Run("filter", func(t *testing.T) {
		mf, err := BuildMembershipFilter(c, FilterOptions{Model: tinyModel(), MaxSubset: 2, Sandwich: true})
		if err != nil {
			t.Fatal(err)
		}
		var first bytes.Buffer
		if err := mf.Save(&first); err != nil {
			t.Fatal(err)
		}
		loaded, err := LoadMembershipFilter(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var second bytes.Buffer
		if err := loaded.Save(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-serialization not byte-identical: %d vs %d bytes",
				first.Len(), second.Len())
		}
		for _, q := range workload {
			if a, b := mf.Contains(q), loaded.Contains(q); a != b {
				t.Fatalf("Contains(%v): trained %v, reloaded %v", q, a, b)
			}
		}
		sameModel(t, mf.model, loaded.model)
	})
}
