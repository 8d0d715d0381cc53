package core

import (
	"bytes"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// Fast option sets for tests: small models, few epochs.
func fastModel(compressed bool) ModelOptions {
	return ModelOptions{
		Compressed: compressed,
		EmbedDim:   4,
		PhiHidden:  []int{16},
		PhiOut:     16,
		RhoHidden:  []int{32},
		Epochs:     15,
		LR:         0.01,
		Workers:    1,
		Seed:       3,
	}
}

func TestBuildIndexAndLookupExact(t *testing.T) {
	c := dataset.GenerateSD(300, 40, 41)
	idx, err := BuildIndex(c, IndexOptions{
		Model: fastModel(false), MaxSubset: 2, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	for i, k := range st.Keys {
		if i%9 != 0 {
			continue
		}
		info := st.ByKey[k]
		if got := idx.Lookup(info.Set); got != info.FirstPos {
			t.Fatalf("Lookup(%v)=%d want %d", info.Set, got, info.FirstPos)
		}
	}
	if idx.Lookup(sets.New()) != -1 {
		t.Fatal("empty query must be -1")
	}
	if idx.Lookup(sets.New(9999999)) != -1 {
		t.Fatal("unknown element must be -1")
	}
	if idx.MaxSubset() != 2 {
		t.Fatal("MaxSubset accessor wrong")
	}
	if idx.SizeBytes() <= 0 || idx.MaxError() < 0 {
		t.Fatal("accounting accessors broken")
	}
}

func TestBuildIndexCompressed(t *testing.T) {
	c := dataset.GenerateSD(200, 40, 42)
	idx, err := BuildIndex(c, IndexOptions{
		Model: fastModel(true), MaxSubset: 2, Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	for i, k := range st.Keys {
		if i%17 != 0 {
			continue
		}
		info := st.ByKey[k]
		if got := idx.Lookup(info.Set); got != info.FirstPos {
			t.Fatalf("CLSM Lookup(%v)=%d want %d", info.Set, got, info.FirstPos)
		}
	}
}

func TestIndexInsertRoutesToAux(t *testing.T) {
	c := dataset.GenerateSD(200, 40, 43)
	idx, err := BuildIndex(c, IndexOptions{Model: fastModel(false), MaxSubset: 2, Percentile: 90})
	if err != nil {
		t.Fatal(err)
	}
	// Append a set with brand-new elements and register it.
	s := sets.New(500, 501)
	pos := c.Append(s)
	idx.Insert(s, pos)
	if got := idx.Lookup(sets.New(500)); got != pos {
		t.Fatalf("inserted singleton lookup %d want %d", got, pos)
	}
	if got := idx.Lookup(sets.New(500, 501)); got != pos {
		t.Fatalf("inserted pair lookup %d want %d", got, pos)
	}
}

func TestBuildEstimatorAccuracyAndHybridGain(t *testing.T) {
	c := dataset.GenerateSD(300, 40, 44)
	st := dataset.CollectSubsets(c, 2)
	samples := st.CardinalitySamples()

	plain, err := BuildEstimator(c, EstimatorOptions{Model: fastModel(false), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	hyb, err := BuildEstimator(c, EstimatorOptions{Model: fastModel(false), MaxSubset: 2, Percentile: 90})
	if err != nil {
		t.Fatal(err)
	}
	qerr := func(e *CardinalityEstimator) float64 {
		var qs []float64
		for _, s := range samples {
			est := e.Estimate(s.Set)
			truth := s.Target
			if est < 1 {
				est = 1
			}
			if truth < 1 {
				truth = 1
			}
			if est > truth {
				qs = append(qs, est/truth)
			} else {
				qs = append(qs, truth/est)
			}
		}
		return train.Mean(qs)
	}
	plainQ, hybQ := qerr(plain), qerr(hyb)
	if hybQ > plainQ {
		t.Fatalf("hybrid (%v) should not be worse than plain (%v)", hybQ, plainQ)
	}
	if plainQ > 5 {
		t.Fatalf("plain estimator q-error %v unreasonably high", plainQ)
	}
	if got := plain.Estimate(sets.New()); got != 0 {
		t.Fatal("empty query should estimate 0")
	}
	if got := plain.Estimate(sets.New(999999)); got != 0 {
		t.Fatal("unknown element should estimate 0")
	}
}

func TestEstimatorUpdate(t *testing.T) {
	c := dataset.GenerateSD(150, 40, 45)
	e, err := BuildEstimator(c, EstimatorOptions{Model: fastModel(false), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := sets.New(1, 2)
	e.Update(q, 42)
	if got := e.Estimate(q); got != 42 {
		t.Fatalf("updated estimate %v want 42", got)
	}
}

func TestMembershipFilterNoFalseNegatives(t *testing.T) {
	c := dataset.GenerateRW(250, 500, 46)
	f, err := BuildMembershipFilter(c, FilterOptions{Model: fastModel(false), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Every subset within the cap must be found — the backup filter
	// guarantees it regardless of model quality.
	st := dataset.CollectSubsets(c, 2)
	for _, k := range st.Keys {
		if !f.Contains(st.ByKey[k].Set) {
			t.Fatalf("false negative for trained positive %v", st.ByKey[k].Set)
		}
	}
	if !f.Contains(sets.New()) {
		t.Fatal("empty set is a subset of everything")
	}
	if f.Contains(sets.New(99999999)) {
		t.Fatal("unknown element can never be contained")
	}
	if f.MaxSubset() != 2 {
		t.Fatal("MaxSubset accessor wrong")
	}
	if f.SizeBytes() < f.ModelSizeBytes() {
		t.Fatal("total size must include the backup filter")
	}
}

func TestMembershipFilterRejectsMostNegatives(t *testing.T) {
	c := dataset.GenerateRW(250, 500, 47)
	f, err := BuildMembershipFilter(c, FilterOptions{
		Model: fastModel(false), MaxSubset: 2, NegPerPos: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	md := st.MembershipSamples(c, 2, 1, 99) // fresh negatives, different seed
	if len(md.Negative) == 0 {
		t.Skip("no negatives")
	}
	fp := 0
	for _, q := range md.Negative {
		if f.Contains(q) {
			fp++
		}
	}
	if rate := float64(fp) / float64(len(md.Negative)); rate > 0.4 {
		t.Fatalf("false positive rate %v too high", rate)
	}
}

func TestModelProbabilityRange(t *testing.T) {
	c := dataset.GenerateRW(150, 300, 48)
	f, err := BuildMembershipFilter(c, FilterOptions{Model: fastModel(true), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	p := f.ModelProbability(c.Sets[0])
	if p < 0 || p > 1 {
		t.Fatalf("probability %v out of range", p)
	}
	if f.ModelProbability(sets.New()) != 0 {
		t.Fatal("empty probability should be 0")
	}
}

func TestBuildersRejectEmptyCollection(t *testing.T) {
	empty := sets.NewCollection(nil)
	if _, err := BuildIndex(empty, IndexOptions{}); err == nil {
		t.Fatal("BuildIndex must reject empty collection")
	}
	if _, err := BuildEstimator(empty, EstimatorOptions{}); err == nil {
		t.Fatal("BuildEstimator must reject empty collection")
	}
	if _, err := BuildMembershipFilter(empty, FilterOptions{}); err == nil {
		t.Fatal("BuildMembershipFilter must reject empty collection")
	}
	withEmpty := sets.NewCollection([]sets.Set{sets.New(1), sets.New()})
	if _, err := BuildIndex(withEmpty, IndexOptions{}); err == nil {
		t.Fatal("BuildIndex must reject empty member sets")
	}
}

// TestFilterNegativeSamplerSmallInputs: the negative sampler draws subsets
// of 2..MaxSubset distinct ids from the collection's elements. A universe
// smaller than the drawn size used to hang it, and a cap below 2 used to
// panic in rand.Intn; both now build a filter with no false negatives.
func TestFilterNegativeSamplerSmallInputs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		c         *sets.Collection
		maxSubset int
	}{
		{"universe smaller than the draw", sets.NewCollection([]sets.Set{sets.New(1, 2)}), 3},
		{"cap below two", dataset.GenerateSD(60, 20, 71), 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f, err := BuildMembershipFilter(tc.c, FilterOptions{Model: tinyModel(), MaxSubset: tc.maxSubset})
			if err != nil {
				t.Fatal(err)
			}
			st := dataset.CollectSubsets(tc.c, tc.maxSubset)
			for _, k := range st.Keys {
				if q := st.ByKey[k].Set; !f.Contains(q) {
					t.Fatalf("false negative for trained subset %v", q)
				}
			}
		})
	}
}

func TestSandwichedFilterNoFalseNegatives(t *testing.T) {
	c := dataset.GenerateRW(250, 500, 55)
	f, err := BuildMembershipFilter(c, FilterOptions{
		Model: fastModel(true), MaxSubset: 2, Sandwich: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	for _, k := range st.Keys {
		if !f.Contains(st.ByKey[k].Set) {
			t.Fatalf("sandwich introduced a false negative for %v", st.ByKey[k].Set)
		}
	}
}

func TestSandwichedFilterRejectsAtLeastAsWell(t *testing.T) {
	c := dataset.GenerateRW(250, 500, 56)
	plain, err := BuildMembershipFilter(c, FilterOptions{Model: fastModel(true), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	sandwiched, err := BuildMembershipFilter(c, FilterOptions{
		Model: fastModel(true), MaxSubset: 2, Sandwich: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	md := st.MembershipSamples(c, 2, 1, 100)
	if len(md.Negative) == 0 {
		t.Skip("no negatives")
	}
	fpPlain, fpSand := 0, 0
	for _, q := range md.Negative {
		if plain.Contains(q) {
			fpPlain++
		}
		if sandwiched.Contains(q) {
			fpSand++
		}
	}
	if fpSand > fpPlain {
		t.Fatalf("sandwich should not increase false positives: %d vs %d", fpSand, fpPlain)
	}
	if sandwiched.SizeBytes() <= plain.SizeBytes() {
		t.Fatal("sandwich pre-filter must be accounted in SizeBytes")
	}
}

func TestSandwichedFilterSaveLoad(t *testing.T) {
	c := dataset.GenerateRW(150, 300, 57)
	f, err := BuildMembershipFilter(c, FilterOptions{
		Model: fastModel(true), MaxSubset: 2, Sandwich: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := LoadMembershipFilter(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	for i, k := range st.Keys {
		if i%4 != 0 {
			continue
		}
		q := st.ByKey[k].Set
		if f.Contains(q) != got.Contains(q) {
			t.Fatalf("sandwich round trip diverged for %v", q)
		}
	}
}

func TestIndexEqualityQueries(t *testing.T) {
	// Collection where a superset shadows an exact set: {1,2} first occurs
	// as a subset at position 0 (inside {1,2,3}) but as an exact set only
	// at position 2.
	c := sets.NewCollection([]sets.Set{
		sets.New(1, 2, 3),
		sets.New(4, 5),
		sets.New(1, 2),
		sets.New(1, 2), // duplicate: first equal position must win
	})
	// Grow the collection so training has something to chew on.
	gen := dataset.GenerateSD(200, 40, 60)
	for _, s := range gen.Sets {
		ids := make([]uint32, len(s))
		for i, v := range s {
			ids[i] = v + 100 // keep clear of the probe elements
		}
		c.Append(sets.New(ids...))
	}
	idx, err := BuildIndex(c, IndexOptions{Model: fastModel(false), MaxSubset: 3, Percentile: 90})
	if err != nil {
		t.Fatal(err)
	}
	if got := idx.Lookup(sets.New(1, 2)); got != 0 {
		t.Fatalf("subset lookup %d want 0", got)
	}
	if got := idx.LookupEqual(sets.New(1, 2)); got != 2 {
		t.Fatalf("equality lookup %d want 2", got)
	}
	if got := idx.LookupEqual(sets.New(1, 2, 3)); got != 0 {
		t.Fatalf("equality lookup of full set %d want 0", got)
	}
	if got := idx.LookupEqual(sets.New(1, 3)); got != -1 {
		t.Fatalf("equality of never-exact subset should be -1, got %d", got)
	}
	if got := idx.LookupEqual(sets.New()); got != -1 {
		t.Fatal("empty equality query must be -1")
	}
}

func TestIndexEqualityForOversizedSets(t *testing.T) {
	// Sets larger than MaxSubset are still equality-findable because full
	// sets are always included in training (CollectSubsetsWithFull).
	c := dataset.GenerateSD(150, 40, 61) // sets of 6–7 elements, cap is 2
	idx, err := BuildIndex(c, IndexOptions{Model: fastModel(false), MaxSubset: 2, Percentile: 90})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.Len(); i += 13 {
		s := c.At(i)
		want := -1
		for j, o := range c.Sets {
			if o.Equal(s) {
				want = j
				break
			}
		}
		if got := idx.LookupEqual(s); got != want {
			t.Fatalf("LookupEqual(%v)=%d want %d", s, got, want)
		}
	}
}

func TestContainsBatchMatchesSequential(t *testing.T) {
	c := dataset.GenerateRW(200, 400, 62)
	f, err := BuildMembershipFilter(c, FilterOptions{Model: fastModel(true), MaxSubset: 2})
	if err != nil {
		t.Fatal(err)
	}
	st := dataset.CollectSubsets(c, 2)
	md := st.MembershipSamples(c, 2, 0.5, 63)
	qs := append(append([]sets.Set{}, md.Positive...), md.Negative...)
	seq := make([]bool, len(qs))
	for i, q := range qs {
		seq[i] = f.Contains(q)
	}
	for _, workers := range []int{0, 1, 4, 16} {
		got := f.ContainsBatch(qs, workers)
		for i := range seq {
			if got[i] != seq[i] {
				t.Fatalf("workers=%d: batch[%d]=%v vs sequential %v", workers, i, got[i], seq[i])
			}
		}
	}
}

func TestBuildIndexWithAutoTarget(t *testing.T) {
	c := dataset.GenerateSD(250, 40, 64)
	idx, err := BuildIndex(c, IndexOptions{
		Model: fastModel(false), MaxSubset: 2, TargetQError: 1.4,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Exactness must hold regardless of how the threshold was chosen.
	st := dataset.CollectSubsets(c, 2)
	for i, k := range st.Keys {
		if i%11 != 0 {
			continue
		}
		info := st.ByKey[k]
		if got := idx.Lookup(info.Set); got != info.FirstPos {
			t.Fatalf("auto-guided Lookup(%v)=%d want %d", info.Set, got, info.FirstPos)
		}
	}
}
