package shard

import (
	"bytes"
	"context"
	"io"
	"testing"
	"time"

	"setlearn/internal/core"
	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// The live-mutation battery: inserts are visible the instant they return,
// background retrains absorb them without moving any answer, and a
// retrained shard is indistinguishable from a from-scratch build over the
// union dataset.

// mutModel is deliberately tiny so retrains take milliseconds; Workers: 1
// keeps every build bit-deterministic for the differential tests.
func mutModel() core.ModelOptions {
	return core.ModelOptions{
		EmbedDim: 2, PhiHidden: []int{4}, PhiOut: 4, RhoHidden: []int{4},
		Epochs: 1, LR: 0.01, Workers: 1, Seed: 5,
	}
}

func mutCollection() *sets.Collection { return dataset.GenerateSD(60, 20, 71) }

func mutIndexOpts() core.IndexOptions {
	return core.IndexOptions{Model: mutModel(), MaxSubset: 2, Percentile: 90}
}

func mutEstOpts() core.EstimatorOptions {
	return core.EstimatorOptions{Model: mutModel(), MaxSubset: 2, Percentile: 90}
}

func mutFltOpts() core.FilterOptions {
	return core.FilterOptions{Model: mutModel(), MaxSubset: 3}
}

// mutContainers builds the three sharded containers over (a private copy
// of) the small mutation fixture.
func mutContainers(tb testing.TB, k int, p Partitioner) (*Index, *Estimator, *Filter, *sets.Collection) {
	tb.Helper()
	c := mutCollection()
	o := Options{Shards: k, Partitioner: p}
	idx, err := BuildShardedIndex(c, o, mutIndexOpts())
	if err != nil {
		tb.Fatal(err)
	}
	est, err := BuildShardedEstimator(c, o, mutEstOpts())
	if err != nil {
		tb.Fatal(err)
	}
	flt, err := BuildShardedFilter(c, o, mutFltOpts())
	if err != nil {
		tb.Fatal(err)
	}
	return idx, est, flt, c
}

// drainDeltas retrains every shard once (no concurrent inserts, so one
// pass empties all deltas) and requires zero pending afterwards.
func drainDeltas(tb testing.TB, r Retrainable, k int) {
	tb.Helper()
	for s := 0; s < k; s++ {
		if err := r.RetrainShard(s); err != nil {
			tb.Fatalf("retrain shard %d: %v", s, err)
		}
	}
	if ds := r.DeltaStats(); ds.Pending != 0 {
		tb.Fatalf("drain left %d pending inserts", ds.Pending)
	}
}

// freshSets returns n canonical sets of fresh elements (ids above base),
// each of the given size, with pairwise-disjoint elements.
func freshSets(base uint32, n, size int) []sets.Set {
	out := make([]sets.Set, n)
	id := base + 1
	for i := range out {
		ids := make([]uint32, size)
		for j := range ids {
			ids[j] = id
			id++
		}
		out[i] = sets.New(ids...)
	}
	return out
}

// TestInsertLifecycle pins the write path end to end on all three
// containers: immediate visibility, delta accounting, retrain absorption
// with unchanged answers, and idempotent double triggers.
func TestInsertLifecycle(t *testing.T) {
	const k = 3
	idx, est, flt, c := mutContainers(t, k, HashBySet)
	probes := []sets.Set{c.At(0), c.At(7), c.At(33)}
	idxTruth := make([]int, len(probes))
	for i, q := range probes {
		idxTruth[i] = idx.Lookup(q)
	}

	ins := freshSets(c.MaxID(), 5, 2)
	positions := make([]int, len(ins))
	for i, s := range ins {
		positions[i] = idx.InsertSet(s)
		if ep := est.InsertSet(s); ep != positions[i] {
			t.Fatalf("estimator handed out position %d, index %d", ep, positions[i])
		}
		if fp := flt.InsertSet(s); fp != positions[i] {
			t.Fatalf("filter handed out position %d, index %d", fp, positions[i])
		}
		if positions[i] != c.Len()+i {
			t.Fatalf("InsertSet position %d, want %d", positions[i], c.Len()+i)
		}
	}

	// Immediate visibility, before any retrain.
	for i, s := range ins {
		if got := idx.Lookup(s); got != positions[i] {
			t.Fatalf("pending Lookup(%v) = %d, want %d", s, got, positions[i])
		}
		if got := idx.LookupEqual(s); got != positions[i] {
			t.Fatalf("pending LookupEqual(%v) = %d, want %d", s, got, positions[i])
		}
		if got := idx.Lookup(s[:1]); got != positions[i] {
			t.Fatalf("pending subset Lookup(%v) = %d, want %d", s[:1], got, positions[i])
		}
		if got := est.Estimate(s); got != 1 {
			t.Fatalf("pending Estimate(%v) = %g, want 1", s, got)
		}
		if !flt.Contains(s) || !flt.Contains(s[:1]) {
			t.Fatalf("pending Contains(%v) = false", s)
		}
	}
	// Batched paths see the deltas too.
	if got := idx.LookupBatch(nil, ins, false); got[2] != positions[2] {
		t.Fatalf("pending LookupBatch = %d, want %d", got[2], positions[2])
	}
	if got := est.EstimateBatch(nil, ins); got[3] != 1 {
		t.Fatalf("pending EstimateBatch = %g, want 1", got[3])
	}
	if got := flt.ContainsBatch(ins, 1); !got[4] {
		t.Fatal("pending ContainsBatch missed an inserted set")
	}

	// Delta accounting.
	for _, r := range []Retrainable{idx, est, flt} {
		ds := r.DeltaStats()
		if ds.Pending != len(ins) || ds.Absorbed != 0 || ds.OldestSecs <= 0 {
			t.Fatalf("DeltaStats before retrain = %+v", ds)
		}
		total := 0
		for _, n := range ds.PerShard {
			total += n
		}
		if total != ds.Pending {
			t.Fatalf("per-shard deltas sum to %d, pending %d", total, ds.Pending)
		}
	}
	pendingSeen := 0
	for _, ss := range idx.ShardStats() {
		pendingSeen += ss.Pending
	}
	if pendingSeen != len(ins) {
		t.Fatalf("ShardStats pending = %d, want %d", pendingSeen, len(ins))
	}
	if s := idx.StalestShard(1); s < 0 || idx.DeltaStats().PerShard[s] == 0 {
		t.Fatalf("StalestShard picked %d with no pending inserts", s)
	}
	if s := idx.StalestShard(len(ins) + 1); s != -1 {
		t.Fatalf("StalestShard below threshold = %d, want -1", s)
	}

	oldMaxID := idx.MaxID()
	drainDeltas(t, idx, k)
	drainDeltas(t, est, k)
	drainDeltas(t, flt, k)

	// Absorption: same answers, now from the trained path; counters moved.
	for i, s := range ins {
		if got := idx.Lookup(s); got != positions[i] {
			t.Fatalf("absorbed Lookup(%v) = %d, want %d", s, got, positions[i])
		}
		if !flt.Contains(s) {
			t.Fatalf("absorbed Contains(%v) = false", s)
		}
	}
	for i, q := range probes {
		if got := idx.Lookup(q); got != idxTruth[i] {
			t.Fatalf("trained probe moved after retrain: Lookup(%v) = %d, want %d", q, got, idxTruth[i])
		}
	}
	for _, r := range []Retrainable{idx, est, flt} {
		if ds := r.DeltaStats(); ds.Absorbed != uint64(len(ins)) {
			t.Fatalf("Absorbed = %d, want %d", ds.Absorbed, len(ins))
		}
	}
	if idx.MaxID() <= oldMaxID {
		t.Fatalf("MaxID did not grow past %d after absorbing fresh elements", oldMaxID)
	}

	// Idempotent double trigger: an empty-delta retrain must not swap.
	before := make([]*state[*core.SetIndex], k)
	for s := 0; s < k; s++ {
		before[s] = idx.states[s].Load()
	}
	drainDeltas(t, idx, k)
	for s := 0; s < k; s++ {
		if idx.states[s].Load() != before[s] {
			t.Fatalf("empty-delta retrain swapped shard %d", s)
		}
	}
	if ds := idx.DeltaStats(); ds.Absorbed != uint64(len(ins)) {
		t.Fatalf("empty-delta retrain moved Absorbed to %d", ds.Absorbed)
	}
	if err := idx.RetrainShard(-1); err == nil {
		t.Fatal("RetrainShard(-1) succeeded")
	}
	if err := idx.RetrainShard(k); err == nil {
		t.Fatal("RetrainShard(k) succeeded")
	}
}

// TestRetrainMatchesFromScratchRebuild is the differential satellite: after
// inserts plus a forced retrain of every shard, the hash-partitioned
// container must be *bit-identical* per shard to a from-scratch build over
// the union dataset — same partitioner, same scaled options, same
// deterministic seeds, single-threaded training.
func TestRetrainMatchesFromScratchRebuild(t *testing.T) {
	const k = 3
	idx, est, flt, c := mutContainers(t, k, HashBySet)
	ins := freshSets(c.MaxID(), 6, 2)
	for _, s := range ins {
		idx.InsertSet(s)
		est.InsertSet(s)
		flt.InsertSet(s)
	}
	drainDeltas(t, idx, k)
	drainDeltas(t, est, k)
	drainDeltas(t, flt, k)

	union := sets.NewCollection(append(append([]sets.Set(nil), c.Sets...), ins...))
	o := Options{Shards: k, Partitioner: HashBySet}
	idx2, err := BuildShardedIndex(union, o, mutIndexOpts())
	if err != nil {
		t.Fatal(err)
	}
	est2, err := BuildShardedEstimator(union, o, mutEstOpts())
	if err != nil {
		t.Fatal(err)
	}
	flt2, err := BuildShardedFilter(union, o, mutFltOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Per-shard bit identity: position maps and serialized model payloads.
	shardBytes := func(save func(io.Writer) error) []byte {
		if save == nil {
			return nil
		}
		var buf bytes.Buffer
		if err := save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for s := 0; s < k; s++ {
		a, b := idx.states[s].Load(), idx2.states[s].Load()
		if len(a.global) != len(b.global) {
			t.Fatalf("index shard %d: %d vs %d sets", s, len(a.global), len(b.global))
		}
		for i := range a.global {
			if a.global[i] != b.global[i] {
				t.Fatalf("index shard %d: global[%d] = %d vs %d", s, i, a.global[i], b.global[i])
			}
		}
		var as, bs func(io.Writer) error
		if a.m != nil {
			as = a.m.Save
		}
		if b.m != nil {
			bs = b.m.Save
		}
		if !bytes.Equal(shardBytes(as), shardBytes(bs)) {
			t.Fatalf("index shard %d: retrained model differs from from-scratch build", s)
		}
		ea, eb := est.states[s].Load(), est2.states[s].Load()
		var eas, ebs func(io.Writer) error
		if ea.m != nil {
			eas = ea.m.Save
		}
		if eb.m != nil {
			ebs = eb.m.Save
		}
		if !bytes.Equal(shardBytes(eas), shardBytes(ebs)) {
			t.Fatalf("estimator shard %d: retrained model differs from from-scratch build", s)
		}
		fa, fb := flt.states[s].Load(), flt2.states[s].Load()
		var fas, fbs func(io.Writer) error
		if fa.m != nil {
			fas = fa.m.Save
		}
		if fb.m != nil {
			fbs = fb.m.Save
		}
		if !bytes.Equal(shardBytes(fas), shardBytes(fbs)) {
			t.Fatalf("filter shard %d: retrained model differs from from-scratch build", s)
		}
	}

	// Answer-level differential over base sets and inserted sets.
	probes := append([]sets.Set{c.At(3), c.At(17), c.At(41)}, ins...)
	for _, q := range probes {
		if a, b := idx.Lookup(q), idx2.Lookup(q); a != b {
			t.Fatalf("Lookup(%v): retrained %d, from-scratch %d", q, a, b)
		}
		if a, b := est.Estimate(q), est2.Estimate(q); a != b {
			t.Fatalf("Estimate(%v): retrained %g, from-scratch %g", q, a, b)
		}
		if a, b := flt.Contains(q), flt2.Contains(q); a != b {
			t.Fatalf("Contains(%v): retrained %v, from-scratch %v", q, a, b)
		}
	}
}

// TestRetrainRangePartitioner: under RangeByPosition inserts route to the
// last shard, whose boundaries differ from a from-scratch partition of the
// union — so the differential here is exact-path answers, not bits.
func TestRetrainRangePartitioner(t *testing.T) {
	const k = 3
	idx, _, _, c := mutContainers(t, k, RangeByPosition)
	probes := []sets.Set{c.At(0), c.At(29), c.At(59)}
	truth := make([]int, len(probes))
	for i, q := range probes {
		truth[i] = idx.Lookup(q)
	}
	ins := freshSets(c.MaxID(), 4, 2)
	positions := make([]int, len(ins))
	for i, s := range ins {
		positions[i] = idx.InsertSet(s)
	}
	drainDeltas(t, idx, k)
	for i, s := range ins {
		if got := idx.Lookup(s); got != positions[i] {
			t.Fatalf("absorbed Lookup(%v) = %d, want %d", s, got, positions[i])
		}
	}
	for i, q := range probes {
		if got := idx.Lookup(q); got != truth[i] {
			t.Fatalf("trained probe moved: Lookup(%v) = %d, want %d", q, got, truth[i])
		}
	}
}

// TestInsertOrderPermutation is the metamorphic satellite: the exact paths
// must not care about insert order. Two containers receive the same sets
// in different orders; before any retrain their delta-served answers are
// identical, and after draining both, the exact guarantees (every set
// findable, no false negatives) hold in both.
func TestInsertOrderPermutation(t *testing.T) {
	const k = 3
	idxA, estA, fltA, c := mutContainers(t, k, HashBySet)
	idxB, estB, fltB, _ := mutContainers(t, k, HashBySet)

	ins := freshSets(c.MaxID(), 6, 2)
	perm := []int{4, 0, 5, 2, 1, 3}
	posA := make(map[string]int)
	posB := make(map[string]int)
	for _, s := range ins {
		posA[s.Key()] = idxA.InsertSet(s)
		estA.InsertSet(s)
		fltA.InsertSet(s)
	}
	for _, i := range perm {
		s := ins[i]
		posB[s.Key()] = idxB.InsertSet(s)
		estB.InsertSet(s)
		fltB.InsertSet(s)
	}

	// Exact paths, pre-retrain: count and membership answers are
	// permutation-invariant (positions are not, by construction).
	for _, s := range ins {
		if a, b := estA.Estimate(s), estB.Estimate(s); a != b || a != 1 {
			t.Fatalf("pending Estimate(%v): %g vs %g, want 1", s, a, b)
		}
		if a, b := estA.Estimate(s[:1]), estB.Estimate(s[:1]); a != b {
			t.Fatalf("pending subset Estimate(%v): %g vs %g", s[:1], a, b)
		}
		if !fltA.Contains(s) || !fltB.Contains(s) {
			t.Fatalf("pending Contains(%v) missed", s)
		}
		if got := idxA.Lookup(s); got != posA[s.Key()] {
			t.Fatalf("container A: Lookup(%v) = %d, want %d", s, got, posA[s.Key()])
		}
		if got := idxB.Lookup(s); got != posB[s.Key()] {
			t.Fatalf("container B: Lookup(%v) = %d, want %d", s, got, posB[s.Key()])
		}
	}

	drainDeltas(t, idxA, k)
	drainDeltas(t, idxB, k)
	drainDeltas(t, fltA, k)
	drainDeltas(t, fltB, k)
	for _, s := range ins {
		if got := idxA.Lookup(s); got != posA[s.Key()] {
			t.Fatalf("container A after retrain: Lookup(%v) = %d, want %d", s, got, posA[s.Key()])
		}
		if got := idxB.Lookup(s); got != posB[s.Key()] {
			t.Fatalf("container B after retrain: Lookup(%v) = %d, want %d", s, got, posB[s.Key()])
		}
		if !fltA.Contains(s) || !fltB.Contains(s) {
			t.Fatalf("after retrain: Contains(%v) missed", s)
		}
	}
}

// TestEstimatorOverrideFold pins the Update/insert/retrain interplay: an
// exact override must keep tracking later inserts exactly, through any
// number of retrains (the swap folds absorbed counts into the override in
// the same critical section).
func TestEstimatorOverrideFold(t *testing.T) {
	const k = 3
	c := mutCollection()
	est, err := BuildShardedEstimator(c, Options{Shards: k, Partitioner: HashBySet, MeasureBounds: true}, mutEstOpts())
	if err != nil {
		t.Fatal(err)
	}
	fresh := c.MaxID() + 1
	q := sets.New(fresh)
	est.Update(q, 5)
	if got := est.Estimate(q); got != 5 {
		t.Fatalf("override = %g, want 5", got)
	}
	if _, ok := est.CombinedErrorBound(); !ok {
		t.Fatal("measured bounds missing before retrain")
	}

	est.InsertSet(sets.New(fresh, fresh+1))
	if got := est.Estimate(q); got != 6 {
		t.Fatalf("override + pending insert = %g, want 6", got)
	}
	drainDeltas(t, est, k)
	if got := est.Estimate(q); got != 6 {
		t.Fatalf("override after fold = %g, want 6", got)
	}
	if _, ok := est.CombinedErrorBound(); ok {
		t.Fatal("measured bounds must be invalidated by a retrain")
	}

	est.InsertSet(sets.New(fresh, fresh+2))
	if got := est.Estimate(q); got != 7 {
		t.Fatalf("folded override + second insert = %g, want 7", got)
	}
	drainDeltas(t, est, k)
	if got := est.Estimate(q); got != 7 {
		t.Fatalf("override after second fold = %g, want 7", got)
	}

	// Update after inserts: the composed answer equals the recorded card
	// immediately and keeps tracking newer inserts only.
	est.InsertSet(sets.New(fresh, fresh+3))
	est.Update(q, 20)
	if got := est.Estimate(q); got != 20 {
		t.Fatalf("re-recorded override = %g, want 20", got)
	}
	est.InsertSet(sets.New(fresh, fresh+4))
	if got := est.Estimate(q); got != 21 {
		t.Fatalf("re-recorded override + insert = %g, want 21", got)
	}
	drainDeltas(t, est, k)
	if got := est.Estimate(q); got != 21 {
		t.Fatalf("re-recorded override after fold = %g, want 21", got)
	}
}

// TestEstimatorDeltaCountAllocFree pins the override read path's delta
// fan-in at zero allocations on a non-empty delta.
func TestEstimatorDeltaCountAllocFree(t *testing.T) {
	c := mutCollection()
	est, err := BuildShardedEstimator(c, Options{Shards: 3, Partitioner: HashBySet}, mutEstOpts())
	if err != nil {
		t.Fatal(err)
	}
	ins := freshSets(c.MaxID(), 16, 2)
	for _, s := range ins {
		est.InsertSet(s)
	}
	q := ins[5]
	if got := est.deltaCount(q); got != 1 {
		t.Fatalf("deltaCount(%v) = %g, want 1", q, got)
	}
	if n := testing.AllocsPerRun(100, func() { est.deltaCount(q) }); n != 0 {
		t.Errorf("deltaCount allocates %v per call", n)
	}
}

// TestEstimatorSaveDeterministic: Save writes the exact overrides in key
// order, so an estimator with many overrides and pending inserts saves the
// same bytes every time, whatever order its override map iterates in.
func TestEstimatorSaveDeterministic(t *testing.T) {
	c := mutCollection()
	est, err := BuildShardedEstimator(c, Options{Shards: 3, Partitioner: HashBySet}, mutEstOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range freshSets(c.MaxID(), 12, 2) {
		est.InsertSet(s)
		est.Update(s, float64(i+2))
	}
	first := resave(t, est.Save)
	for i := 2; i <= 5; i++ {
		if again := resave(t, est.Save); !bytes.Equal(first, again) {
			t.Fatalf("save %d differs from the first (%d vs %d bytes)", i, len(again), len(first))
		}
	}
}

// TestTrainerBackground runs the background trainer against all three
// containers and waits for it to absorb every insert on its own.
func TestTrainerBackground(t *testing.T) {
	const k = 3
	idx, est, flt, c := mutContainers(t, k, HashBySet)
	tr := NewTrainer(2*time.Millisecond, 1, func(err error) { t.Errorf("trainer: %v", err) }, idx, est, flt)
	tr.Start(context.Background())
	defer tr.Stop()

	ins := freshSets(c.MaxID(), 4, 2)
	positions := make([]int, len(ins))
	for i, s := range ins {
		positions[i] = idx.InsertSet(s)
		est.InsertSet(s)
		flt.InsertSet(s)
	}
	tr.Kick()
	deadline := time.Now().Add(30 * time.Second)
	for {
		if idx.DeltaStats().Pending == 0 && est.DeltaStats().Pending == 0 && flt.DeltaStats().Pending == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("trainer did not drain: idx=%d est=%d flt=%d pending",
				idx.DeltaStats().Pending, est.DeltaStats().Pending, flt.DeltaStats().Pending)
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, s := range ins {
		if got := idx.Lookup(s); got != positions[i] {
			t.Fatalf("after background retrain: Lookup(%v) = %d, want %d", s, got, positions[i])
		}
		if !flt.Contains(s) {
			t.Fatalf("after background retrain: Contains(%v) = false", s)
		}
	}
	st := tr.Stats()
	if st.Retrains < 3 || st.Sweeps == 0 || st.Errors != 0 {
		t.Fatalf("trainer stats = %+v, want ≥3 retrains, 0 errors", st)
	}
	if st.Retrains > 0 && st.LastSecs <= 0 {
		t.Fatalf("trainer stats = %+v, want positive last-retrain duration", st)
	}
}

// TestMutationSaveLoadRoundTrip: pending deltas survive a save/load cycle
// (SLSHRD1 v2), answers are correct immediately after load, a re-save is
// byte-identical, and retraining resumes — directly for the index, after
// AttachCollection for the estimator and filter.
func TestMutationSaveLoadRoundTrip(t *testing.T) {
	const k = 3
	idx, est, flt, c := mutContainers(t, k, HashBySet)
	fresh := c.MaxID() + 1
	est.Update(sets.New(fresh+100), 9)
	ins := freshSets(c.MaxID(), 5, 2)
	positions := make([]int, len(ins))
	for i, s := range ins {
		positions[i] = idx.InsertSet(s)
		est.InsertSet(s)
		flt.InsertSet(s)
	}
	// Absorb a bit first so the stream carries a retrained shard AND
	// pending deltas at once.
	if s := idx.StalestShard(1); s >= 0 {
		if err := idx.RetrainShard(s); err != nil {
			t.Fatal(err)
		}
	}

	var bx, be, bf bytes.Buffer
	if err := idx.Save(&bx); err != nil {
		t.Fatal(err)
	}
	if err := est.Save(&be); err != nil {
		t.Fatal(err)
	}
	if err := flt.Save(&bf); err != nil {
		t.Fatal(err)
	}

	lidx, err := LoadShardedIndex(bytes.NewReader(bx.Bytes()), c)
	if err != nil {
		t.Fatal(err)
	}
	lest, err := LoadShardedEstimator(bytes.NewReader(be.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lflt, err := LoadShardedFilter(bytes.NewReader(bf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}

	// Restart loses nothing: pending inserts answer exactly again.
	for i, s := range ins {
		if got := lidx.Lookup(s); got != positions[i] {
			t.Fatalf("reloaded Lookup(%v) = %d, want %d", s, got, positions[i])
		}
		if got := lest.Estimate(s); got != est.Estimate(s) {
			t.Fatalf("reloaded Estimate(%v) = %g, want %g", s, got, est.Estimate(s))
		}
		if !lflt.Contains(s) {
			t.Fatalf("reloaded Contains(%v) = false", s)
		}
	}
	if got := lest.Estimate(sets.New(fresh + 100)); got != 9 {
		t.Fatalf("reloaded override = %g, want 9", got)
	}
	if a, b := lidx.DeltaStats(), idx.DeltaStats(); a.Pending != b.Pending || a.Absorbed != 0 {
		t.Fatalf("reloaded DeltaStats = %+v, saved %+v (absorbed counter is per-process)", a, b)
	}
	if got := int(lidx.nextPos.Load()); got != c.Len()+len(ins) {
		t.Fatalf("reloaded nextPos = %d, want %d", got, c.Len()+len(ins))
	}

	// Deterministic bytes: save-of-load equals the original stream.
	var rx, re, rf bytes.Buffer
	if err := lidx.Save(&rx); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bx.Bytes(), rx.Bytes()) {
		t.Fatal("index save-of-load not byte-identical")
	}
	if err := lest.Save(&re); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(be.Bytes(), re.Bytes()) {
		t.Fatal("estimator save-of-load not byte-identical")
	}
	if err := lflt.Save(&rf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bf.Bytes(), rf.Bytes()) {
		t.Fatal("filter save-of-load not byte-identical")
	}

	// The index can retrain straight away (its subs rebuild at load).
	drainDeltas(t, lidx, k)
	for i, s := range ins {
		if got := lidx.Lookup(s); got != positions[i] {
			t.Fatalf("reloaded+retrained Lookup(%v) = %d, want %d", s, got, positions[i])
		}
	}

	// Estimator and filter need their collection back first.
	if s := lest.StalestShard(1); s != -1 {
		t.Fatalf("detached estimator StalestShard = %d, want -1", s)
	}
	if err := lest.RetrainShard(0); err == nil {
		t.Fatal("detached estimator retrained without a collection")
	}
	if err := lest.AttachCollection(c); err != nil {
		t.Fatal(err)
	}
	if err := lflt.AttachCollection(c); err != nil {
		t.Fatal(err)
	}
	drainDeltas(t, lest, k)
	drainDeltas(t, lflt, k)
	for _, s := range ins {
		if !lflt.Contains(s) {
			t.Fatalf("reloaded+retrained Contains(%v) = false", s)
		}
	}
	if got := lest.Estimate(sets.New(fresh + 100)); got != 9 {
		t.Fatalf("override after reload+retrain = %g, want 9", got)
	}

	// A short collection must be rejected, not mis-resolved.
	shortC := sets.NewCollection(c.Sets[:10])
	if _, err := LoadShardedIndex(bytes.NewReader(bx.Bytes()), shortC); err == nil {
		t.Fatal("index loaded over a shorter collection than it was built on")
	}
	if err := lest.AttachCollection(sets.NewCollection(nil)); err == nil {
		t.Fatal("estimator attached an empty collection")
	}
}
