package hybrid

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/deepsets"
	"setlearn/internal/nn"
	"setlearn/internal/sets"
	"setlearn/internal/train"
)

// buildFixture trains a small index model over an SD-like collection and
// returns everything needed to assemble hybrid structures.
type fixture struct {
	c       *sets.Collection
	st      *dataset.SubsetStats
	model   *deepsets.Model
	scaler  train.Scaler
	guided  *train.GuidedResult
	samples []dataset.Sample
}

func buildFixture(tb testing.TB, percentile float64) *fixture {
	tb.Helper()
	f := newFixture(tb)
	res, err := train.Guided(f.model, f.samples, f.scaler, train.GuidedConfig{
		Train:      train.Config{Epochs: 20, LR: 0.01, Seed: 9, Workers: 1},
		Percentile: percentile,
	})
	if err != nil {
		tb.Fatal(err)
	}
	f.guided = res
	return f
}

// newFixture is buildFixture without the training: an untrained model and
// an empty guided result, for tests that never read the model's accuracy
// (training is most of a test's time under -race).
func newFixture(tb testing.TB) *fixture {
	tb.Helper()
	c := dataset.GenerateSD(400, 50, 21)
	st := dataset.CollectSubsets(c, 3)
	samples := st.IndexSamples()
	m, err := deepsets.New(deepsets.Config{
		MaxID: c.MaxID(), EmbedDim: 4, PhiHidden: []int{16}, PhiOut: 16,
		RhoHidden: []int{32}, OutputAct: nn.Sigmoid, Seed: 7,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return &fixture{c: c, st: st, model: m, scaler: train.FitScaler(samples), guided: &train.GuidedResult{}, samples: samples}
}

func TestIndexFindsEveryTrainedSubset(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The error bounds are computed over kept samples and the aux holds the
	// outliers, so every trained subset must be found at its exact first
	// position — the correctness guarantee of §6.
	for i, s := range f.samples {
		if i%5 != 0 { // sample for speed
			continue
		}
		got := idx.Lookup(s.Set)
		if got != int(s.Target) {
			t.Fatalf("Lookup(%v)=%d want %d", s.Set, got, int(s.Target))
		}
	}
}

func TestIndexGlobalBoundAgrees(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range f.samples {
		if i%11 != 0 {
			continue
		}
		if a, b := idx.Lookup(s.Set), idx.LookupGlobalBound(s.Set); a != b {
			t.Fatalf("local %d vs global %d for %v", a, b, s.Set)
		}
	}
}

func TestLocalErrorTighterThanGlobal(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{RangeLen: 50})
	if err != nil {
		t.Fatal(err)
	}
	if idx.MaxError() > 0 && idx.MeanLocalError() >= float64(idx.MaxError()) {
		t.Fatalf("mean local error %v should be below global max %d",
			idx.MeanLocalError(), idx.MaxError())
	}
	// Window size must respect the local bound and count only positions
	// that exist.
	for i, s := range f.samples {
		if i%37 != 0 {
			continue
		}
		w := idx.WindowSize(s.Set)
		if w > 2*idx.MaxError()+1 {
			t.Fatalf("window %d exceeds global bound", w)
		}
		if w < 1 || w > f.c.Len() {
			t.Fatalf("window %d outside [1, %d]", w, f.c.Len())
		}
	}
}

func TestIndexAuxHoldsOutliers(t *testing.T) {
	f := buildFixture(t, 75)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if idx.AuxLen() != len(f.guided.Outliers) {
		t.Fatalf("aux holds %d, outliers %d", idx.AuxLen(), len(f.guided.Outliers))
	}
	for i, s := range f.guided.Outliers {
		if i%7 != 0 {
			continue
		}
		if got := idx.Lookup(s.Set); got != int(s.Target) {
			t.Fatalf("outlier %v resolved to %d want %d", s.Set, got, int(s.Target))
		}
	}
}

func TestIndexUnseenQueryWithinCollection(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// A query absent from the collection: Lookup must not invent a position.
	absent := sets.New(9999)
	if got := idx.Lookup(absent); got != -1 {
		t.Fatalf("absent query resolved to %d", got)
	}
}

func TestIndexUpdateViaInsertOutlier(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// §7.2: an update is absorbed by the aux structure without retraining.
	pos := f.c.Append(sets.New(9999, 10000))
	q := sets.New(9999, 10000)
	idx.InsertOutlier(q, pos)
	if got := idx.Lookup(q); got != pos {
		t.Fatalf("updated subset resolved to %d want %d", got, pos)
	}
}

func TestIndexMemoryBreakdown(t *testing.T) {
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{RangeLen: 100})
	if err != nil {
		t.Fatal(err)
	}
	m, a, e := idx.MemoryBreakdown()
	if m != f.model.SizeBytes() {
		t.Fatalf("model bytes %d vs %d", m, f.model.SizeBytes())
	}
	if len(f.guided.Outliers) > 0 && a == 0 {
		t.Fatal("aux bytes zero despite outliers")
	}
	wantRanges := (f.c.Len() + 99) / 100
	if e != 8*wantRanges {
		t.Fatalf("error list bytes %d want %d", e, 8*wantRanges)
	}
	// The signature column, 8 bytes per set, is the only term outside the
	// Table 7 breakdown.
	if idx.SizeBytes() != m+a+e+8*f.c.Len() {
		t.Fatalf("SizeBytes %d, want breakdown %d + column %d", idx.SizeBytes(), m+a+e, 8*f.c.Len())
	}
}

// TestEmptyQueryMatchesBatch pins the empty-query convention of the single
// forms to that of their batch forms: -1 for every lookup, 0 for the
// window and the estimate, and no model call (the model rejects ∅).
func TestEmptyQueryMatchesBatch(t *testing.T) {
	f := newFixture(t)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	est := BuildEstimator(f.model, f.scaler, f.guided)
	for _, q := range []sets.Set{nil, {}} {
		if got, want := idx.Lookup(q), idx.LookupBatch(nil, []sets.Set{q}, false)[0]; got != want || got != -1 {
			t.Errorf("Lookup(∅) = %d, LookupBatch = %d, want -1", got, want)
		}
		if got, want := idx.LookupEqual(q), idx.LookupBatch(nil, []sets.Set{q}, true)[0]; got != want || got != -1 {
			t.Errorf("LookupEqual(∅) = %d, LookupBatch(equal) = %d, want -1", got, want)
		}
		if got := idx.LookupGlobalBound(q); got != -1 {
			t.Errorf("LookupGlobalBound(∅) = %d, want -1", got)
		}
		if got := idx.WindowSize(q); got != 0 {
			t.Errorf("WindowSize(∅) = %d, want 0", got)
		}
		if got, want := est.Estimate(q), est.EstimateBatch(nil, []sets.Set{q})[0]; got != want || got != 0 {
			t.Errorf("Estimate(∅) = %v, EstimateBatch = %v, want 0", got, want)
		}
	}
}

func TestBuildIndexRejectsEmptyCollection(t *testing.T) {
	f := buildFixture(t, 0)
	empty := sets.NewCollection(nil)
	if _, err := BuildIndex(empty, f.model, f.scaler, f.guided, IndexConfig{}); err == nil {
		t.Fatal("expected error for empty collection")
	}
}

func TestEstimatorExactOnOutliersModelElsewhere(t *testing.T) {
	c := dataset.GenerateSD(400, 50, 22)
	st := dataset.CollectSubsets(c, 3)
	samples := st.CardinalitySamples()
	sc := train.FitScaler(samples)
	m, err := deepsets.New(deepsets.Config{
		MaxID: c.MaxID(), EmbedDim: 4, PhiHidden: []int{16}, PhiOut: 16,
		RhoHidden: []int{32}, OutputAct: nn.Sigmoid, Seed: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := train.Guided(m, samples, sc, train.GuidedConfig{
		Train:      train.Config{Epochs: 15, LR: 0.01, Seed: 10, Workers: 1},
		Percentile: 90,
	})
	if err != nil {
		t.Fatal(err)
	}
	est := BuildEstimator(m, sc, res)
	if est.AuxLen() != len(res.Outliers) {
		t.Fatal("aux size mismatch")
	}
	for i, s := range res.Outliers {
		if i%5 != 0 {
			continue
		}
		if got := est.Estimate(s.Set); got != s.Target {
			t.Fatalf("outlier estimate %v want exact %v", got, s.Target)
		}
	}
	// Hybrid must beat the raw model on the full sample set (§8.2.1).
	hybridQE := train.Mean(est.EstimateSamples(samples))
	rawQE := train.Mean(train.QErrors(m, samples, sc))
	if hybridQE > rawQE {
		t.Fatalf("hybrid q-error %v worse than raw %v", hybridQE, rawQE)
	}
	if hybridQE < 1 {
		t.Fatalf("impossible mean q-error %v", hybridQE)
	}
}

func TestEstimatorFloorsAtOne(t *testing.T) {
	f := buildFixture(t, 0)
	est := BuildEstimator(f.model, train.Scaler{Min: 0, Max: 1}, f.guided)
	if got := est.Estimate(sets.New(1, 2, 3)); got < 1 {
		t.Fatalf("estimate %v below 1", got)
	}
}

func TestEstimatorInsertOutlier(t *testing.T) {
	f := buildFixture(t, 0)
	est := BuildEstimator(f.model, f.scaler, f.guided)
	before := est.SizeBytes()
	est.InsertOutlier(sets.New(123, 456), 7)
	if got := est.Estimate(sets.New(123, 456)); got != 7 {
		t.Fatalf("inserted outlier returned %v", got)
	}
	if est.SizeBytes() <= before {
		t.Fatal("SizeBytes must grow with aux entries")
	}
}

func TestConcurrentQueriesRaceFree(t *testing.T) {
	// The hybrid structures must serve parallel query streams; run with
	// -race to catch predictor-state sharing.
	f := buildFixture(t, 90)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	est := BuildEstimator(f.model, f.scaler, f.guided)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				s := f.samples[(w*211+i)%len(f.samples)]
				if got := idx.Lookup(s.Set); got != int(s.Target) {
					t.Errorf("concurrent Lookup(%v)=%d want %d", s.Set, got, int(s.Target))
					return
				}
				est.Estimate(s.Set)
			}
		}(w)
	}
	wg.Wait()
}

// naiveEqualInRange is the reference for the equality form of firstInRange:
// the first position in [lo, hi], clamped, whose set equals q.
func naiveEqualInRange(c *sets.Collection, q sets.Set, lo, hi int) int {
	for i := max(lo, 0); i <= min(hi, c.Len()-1); i++ {
		if c.At(i).Equal(q) {
			return i
		}
	}
	return -1
}

// checkScan compares idx.firstInRange with the collection's reference scan
// for every query over random windows (some reaching past either end of the
// collection, some empty) and windows pinned to the query's first hit and
// to the last position with a signature, where the filtered and plain
// loops meet.
func checkScan(t *testing.T, name string, idx *Index, queries []sets.Set, rng *rand.Rand) {
	t.Helper()
	c := idx.collection
	n, b := c.Len(), len(idx.sigs)
	for _, q := range queries {
		ws := [][2]int{{0, n - 1}, {-7, n + 7}, {b - 1, b - 1}, {b - 1, b}, {b, b}, {b - 3, n + 2}, {5, 2}}
		for k := 0; k < 3; k++ {
			lo := rng.Intn(n+40) - 20
			ws = append(ws, [2]int{lo, lo + rng.Intn(n/2) - 10})
		}
		if p := c.FirstPosition(q); p >= 0 {
			ws = append(ws, [2]int{p, p}, [2]int{p - 3, p}, [2]int{p, p + 3}, [2]int{p + 1, n + 1})
		}
		for _, w := range ws {
			lo, hi := w[0], w[1]
			if got, want := idx.firstInRange(q, lo, hi, false), c.FirstPositionInRange(q, lo, hi); got != want {
				t.Fatalf("%s: firstInRange(%v, %d, %d) = %d, reference %d (N=%d, signed %d)", name, q, lo, hi, got, want, n, b)
			}
			if got, want := idx.firstInRange(q, lo, hi, true), naiveEqualInRange(c, q, lo, hi); got != want {
				t.Fatalf("%s: firstInRange(%v, %d, %d, equal) = %d, reference %d (N=%d, signed %d)", name, q, lo, hi, got, want, n, b)
			}
		}
	}
}

// TestIndexScanMatchesReference checks the signature-filtered window scan
// against Collection.FirstPositionInRange and a plain equality scan: after
// BuildIndex, after sets are appended to the collection (positions with no
// signature), and after LoadIndex over a longer collection with more sets
// appended after the load.
func TestIndexScanMatchesReference(t *testing.T) {
	f := newFixture(t)
	n0 := f.c.Len()
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var saved bytes.Buffer
	if err := idx.Save(&saved); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	maxID := f.c.MaxID()
	// Ids absent from the collection, most of them sharing a signature bit
	// with a collection id: those pass the word test and only the merge
	// rejects them.
	absent := append(collidingIDs(f.c.At(0)[0], maxID+1, 4), collidingIDs(f.c.At(n0 - 1)[0], maxID+1, 4)...)
	absent = append(absent, maxID+1, maxID+500, 1<<31)
	pick := func() uint32 {
		if rng.Intn(4) == 0 {
			return absent[rng.Intn(len(absent))]
		}
		return uint32(rng.Intn(int(maxID) + 1))
	}
	var queries []sets.Set
	for _, s := range f.samples {
		queries = append(queries, s.Set)
	}
	for i := 0; i < 600; i++ {
		ids := make([]uint32, 1+rng.Intn(3))
		for j := range ids {
			ids[j] = pick()
		}
		queries = append(queries, sets.New(ids...))
	}
	// Sets to append: copies of collection sets (earlier hits exist) and
	// sets over absent ids (the only hits are past the signed prefix).
	extra := func(k int) []sets.Set {
		var out []sets.Set
		for i := 0; i < k; i++ {
			if i%2 == 0 {
				out = append(out, f.c.At(rng.Intn(n0)))
			} else {
				out = append(out, sets.New(absent[rng.Intn(len(absent))], absent[rng.Intn(len(absent))], pick()))
			}
		}
		return out
	}
	withEdges := func(c *sets.Collection, b int) []sets.Set {
		qs := append([]sets.Set(nil), queries...)
		for _, p := range []int{0, b - 1, b, c.Len() - 1} {
			if p >= 0 && p < c.Len() {
				qs = append(qs, c.At(p), c.At(p)[:1])
			}
		}
		for _, s := range c.Sets[n0:] {
			qs = append(qs, s, s[len(s)-1:])
		}
		return qs
	}

	checkScan(t, "build", idx, withEdges(f.c, n0), rng)
	for _, s := range extra(30) {
		f.c.Append(s)
	}
	checkScan(t, "build+append", idx, withEdges(f.c, n0), rng)

	longer := sets.NewCollection(append([]sets.Set(nil), f.c.Sets...))
	for _, s := range extra(20) {
		longer.Append(s)
	}
	loaded, err := LoadIndex(&saved, longer)
	if err != nil {
		t.Fatal(err)
	}
	nLoad := longer.Len()
	for _, s := range extra(30) {
		longer.Append(s)
	}
	checkScan(t, "load+append", loaded, withEdges(longer, nLoad), rng)
}

// TestIndexScanAllocFree pins firstInRange at zero allocations.
func TestIndexScanAllocFree(t *testing.T) {
	f := newFixture(t)
	idx, err := BuildIndex(f.c, f.model, f.scaler, f.guided, IndexConfig{})
	if err != nil {
		t.Fatal(err)
	}
	f.c.Append(sets.New(1, 2, 3))
	q := f.samples[len(f.samples)/2].Set
	for _, equal := range []bool{false, true} {
		if n := testing.AllocsPerRun(100, func() { idx.firstInRange(q, 0, f.c.Len()-1, equal) }); n != 0 {
			t.Errorf("firstInRange(equal=%v) allocates %v per call", equal, n)
		}
	}
}

// windowScanFixture is the collection and query pool of the setlearnbench
// workloads, with an Index that holds only the collection and its
// signatures: the scan needs no model.
func windowScanFixture() (*Index, []sets.Set) {
	c := dataset.GenerateRW(1000, 1500, 1)
	return &Index{collection: c, sigs: sigColumn(c)}, dataset.QueryWorkload(c, 4096, 3, 2)
}

// BenchmarkIndexWindowScan scans each pool query over the whole collection
// with the signature filter; BenchmarkIndexWindowScanReference does the
// same with the plain merge, so one run gives the ratio.
func BenchmarkIndexWindowScan(b *testing.B) {
	idx, qs := windowScanFixture()
	hi := idx.collection.Len() - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPos = idx.firstInRange(qs[i%len(qs)], 0, hi, false)
	}
}

func BenchmarkIndexWindowScanReference(b *testing.B) {
	idx, qs := windowScanFixture()
	hi := idx.collection.Len() - 1
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPos = idx.collection.FirstPositionInRange(qs[i%len(qs)], 0, hi)
	}
}
