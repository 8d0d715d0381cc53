package dataset

import (
	"sort"
	"testing"

	"setlearn/internal/sets"
)

func TestGenerateRWShape(t *testing.T) {
	c := GenerateRW(1000, 2000, 1)
	st := c.Stats()
	if st.N != 1000 {
		t.Fatalf("N=%d", st.N)
	}
	if st.MinSetSize < 2 || st.MaxSetSize > 8 {
		t.Fatalf("set sizes [%d,%d] outside 2–8", st.MinSetSize, st.MaxSetSize)
	}
	if st.UniqueElem < 100 {
		t.Fatalf("suspiciously small vocabulary: %d", st.UniqueElem)
	}
}

func TestGenerateTweetsShape(t *testing.T) {
	c := GenerateTweets(1000, 2000, 2)
	st := c.Stats()
	if st.MinSetSize < 1 || st.MaxSetSize > 12 {
		t.Fatalf("set sizes [%d,%d] outside 1–12", st.MinSetSize, st.MaxSetSize)
	}
}

func TestGenerateSDShape(t *testing.T) {
	c := GenerateSD(500, 80, 3)
	st := c.Stats()
	if st.MinSetSize < 6 || st.MaxSetSize > 7 {
		t.Fatalf("set sizes [%d,%d] outside 6–7", st.MinSetSize, st.MaxSetSize)
	}
	if st.UniqueElem > 80 {
		t.Fatalf("vocabulary exceeded: %d", st.UniqueElem)
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a := GenerateRW(200, 500, 42)
	b := GenerateRW(200, 500, 42)
	for i := range a.Sets {
		if !a.Sets[i].Equal(b.Sets[i]) {
			t.Fatalf("set %d differs across equal seeds", i)
		}
	}
	cDiff := GenerateRW(200, 500, 43)
	same := 0
	for i := range a.Sets {
		if a.Sets[i].Equal(cDiff.Sets[i]) {
			same++
		}
	}
	if same == len(a.Sets) {
		t.Fatal("different seeds produced identical collections")
	}
}

func TestZipfSkew(t *testing.T) {
	// RW must be skewed: the most frequent element should occur far more
	// often than the median.
	c := GenerateRW(5000, 5000, 7)
	freq := c.ElementFrequencies()
	counts := make([]int, 0, len(freq))
	for _, n := range freq {
		counts = append(counts, n)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(counts)))
	median := counts[len(counts)/2]
	if counts[0] < 20*median {
		t.Fatalf("expected heavy skew: top=%d median=%d", counts[0], median)
	}
}

func TestGeneratePanicsOnBadArgs(t *testing.T) {
	for name, f := range map[string]func(){
		"n=0":        func() { GenerateRW(0, 10, 1) },
		"vocab=1":    func() { GenerateRW(10, 1, 1) },
		"size>vocab": func() { GenerateSD(10, 5, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			f()
		}()
	}
}

func TestCollectSubsetsGroundTruth(t *testing.T) {
	c := sets.NewCollection([]sets.Set{
		sets.New(1, 2, 3),
		sets.New(2, 3),
		sets.New(1, 2),
	})
	st := CollectSubsets(c, 2)
	// {2}: appears in all three sets, first at position 0.
	info := st.ByKey[sets.New(2).Key()]
	if info == nil || info.Card != 3 || info.FirstPos != 0 {
		t.Fatalf("{2} info %+v", info)
	}
	// {2,3}: sets 0 and 1, first at 0.
	info = st.ByKey[sets.New(2, 3).Key()]
	if info == nil || info.Card != 2 || info.FirstPos != 0 {
		t.Fatalf("{2,3} info %+v", info)
	}
	// {1,3}: only inside set 0.
	info = st.ByKey[sets.New(1, 3).Key()]
	if info == nil || info.Card != 1 || info.FirstPos != 0 {
		t.Fatalf("{1,3} info %+v", info)
	}
	// Size cap respected: {1,2,3} must not be enumerated.
	if st.Contains(sets.New(1, 2, 3)) {
		t.Fatal("maxSubset cap violated")
	}
}

// Property: CollectSubsets ground truth must agree with the collection's
// linear-scan reference for every enumerated subset.
func TestCollectSubsetsMatchesLinearScan(t *testing.T) {
	c := GenerateRW(150, 300, 11)
	st := CollectSubsets(c, 3)
	if st.Len() == 0 {
		t.Fatal("no subsets collected")
	}
	checked := 0
	for _, k := range st.Keys {
		info := st.ByKey[k]
		if checked%17 == 0 { // full verification is quadratic; sample
			if got := c.Cardinality(info.Set); got != info.Card {
				t.Fatalf("card mismatch for %v: %d vs scan %d", info.Set, info.Card, got)
			}
			if got := c.FirstPosition(info.Set); got != info.FirstPos {
				t.Fatalf("pos mismatch for %v: %d vs scan %d", info.Set, info.FirstPos, got)
			}
		}
		checked++
	}
}

func TestIndexAndCardinalitySamples(t *testing.T) {
	c := sets.NewCollection([]sets.Set{sets.New(1, 2), sets.New(1)})
	st := CollectSubsets(c, 2)
	idx := st.IndexSamples()
	card := st.CardinalitySamples()
	if len(idx) != st.Len() || len(card) != st.Len() {
		t.Fatal("sample counts mismatch")
	}
	// Deterministic order: first sample corresponds to first-seen subset {1}.
	if !idx[0].Set.Equal(sets.New(1)) || idx[0].Target != 0 {
		t.Fatalf("first index sample %+v", idx[0])
	}
	if card[0].Target != 2 {
		t.Fatalf("cardinality of {1} should be 2, got %v", card[0].Target)
	}
}

func TestMembershipSamples(t *testing.T) {
	c := GenerateRW(300, 600, 5)
	st := CollectSubsets(c, 3)
	md := st.MembershipSamples(c, 3, 1.0, 6)
	if len(md.Positive) != st.Len() {
		t.Fatalf("positives %d want %d", len(md.Positive), st.Len())
	}
	if len(md.Negative) == 0 {
		t.Fatal("no negatives generated")
	}
	// Every negative must truly be absent (checked against linear scan) and
	// within the size cap.
	for i, q := range md.Negative {
		if i%23 != 0 {
			continue
		}
		if len(q) < 2 || len(q) > 3 {
			t.Fatalf("negative %v outside size bounds", q)
		}
		if c.Member(q) {
			t.Fatalf("negative %v actually occurs in the collection", q)
		}
	}
}

func TestQueryWorkload(t *testing.T) {
	c := GenerateRW(200, 400, 8)
	qs := QueryWorkload(c, 500, 4, 9)
	if len(qs) != 500 {
		t.Fatalf("got %d queries", len(qs))
	}
	sizes := make(map[int]int)
	for _, q := range qs {
		if len(q) == 0 || len(q) > 4 {
			t.Fatalf("query size %d out of bounds", len(q))
		}
		sizes[len(q)]++
		// Every query must exist in the collection (drawn from its sets).
		if c.Cardinality(q) == 0 {
			t.Fatalf("query %v not present", q)
		}
	}
	if len(sizes) < 2 {
		t.Fatal("workload should mix sizes")
	}
	// The benchmark and the experiments replay workloads by seed.
	for i, q := range QueryWorkload(c, 500, 4, 9) {
		if !q.Equal(qs[i]) {
			t.Fatalf("query %d differs across equal seeds: %v vs %v", i, q, qs[i])
		}
	}
}

func TestScaleByName(t *testing.T) {
	if s, ok := ScaleByName("small"); !ok || s.Name != "small" {
		t.Fatal("small preset missing")
	}
	if _, ok := ScaleByName("nope"); ok {
		t.Fatal("unknown preset resolved")
	}
}

func TestScaleDatasets(t *testing.T) {
	ds := Tiny.Datasets()
	if len(ds) != 3 || ds[0].Name != "RW" || ds[1].Name != "Tweets" || ds[2].Name != "SD" {
		t.Fatalf("dataset lineup wrong: %+v", ds)
	}
	for _, d := range ds {
		if d.Collection.Len() == 0 {
			t.Fatalf("%s empty", d.Name)
		}
	}
}

func TestSubsetCardinalityMonotonicity(t *testing.T) {
	// §4.2: a superset always has cardinality ≤ any of its subsets; verify
	// on generated data as a ground-truth sanity invariant.
	c := GenerateSD(300, 60, 12)
	st := CollectSubsets(c, 3)
	for i, k := range st.Keys {
		if i%11 != 0 {
			continue
		}
		info := st.ByKey[k]
		if len(info.Set) < 2 {
			continue
		}
		sets.Subsets(info.Set, len(info.Set)-1, func(sub sets.Set) {
			if subInfo, ok := st.ByKey[sub.Key()]; ok && subInfo.Card < info.Card {
				t.Fatalf("monotonicity violated: |%v|=%d < |%v|=%d",
					sub, subInfo.Card, info.Set, info.Card)
			}
		})
	}
}
