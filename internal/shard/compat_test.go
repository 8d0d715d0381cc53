package shard

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

// Compatibility pins for the container format: streams written by an
// earlier release of the containers, streams in the oldest (v1) format, and
// containers with an empty shard must load, answer exactly, and re-save.

// parentFixture reads one committed stream written by an earlier release
// from the buildIOCorpus inputs (K=3 HashBySet with MeasureBounds): built,
// then given the inserts of parentFixtureInserts (all but the last), the
// two estimator overrides of TestParentFixtures, a retrain of every shard,
// and finally the last insert, which stays pending.
func parentFixture(tb testing.TB, kind string) []byte {
	tb.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "parent-"+kind+".bin"))
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

func parentFixtureInserts(c *sets.Collection) []sets.Set {
	return []sets.Set{c.At(3), c.At(17), sets.New(c.MaxID()+1, c.MaxID()+2), sets.New(1, 2, 3), c.At(9)}
}

// TestParentFixtures: each committed stream loads, re-saves byte-identically
// and answers exactly over the union of the base collection and the
// inserted sets.
func TestParentFixtures(t *testing.T) {
	c := dataset.GenerateSD(60, 20, 71)
	ins := parentFixtureInserts(c)
	union := sets.NewCollection(append(append([]sets.Set(nil), c.Sets...), ins...))
	trained := dataset.CollectSubsets(union, 2)

	t.Run("index", func(t *testing.T) {
		stream := parentFixture(t, "index")
		x, err := LoadShardedIndex(bytes.NewReader(stream), c)
		if err != nil {
			t.Fatal(err)
		}
		if got := resave(t, x.Save); !bytes.Equal(got, stream) {
			t.Fatalf("re-save not byte-identical: %d → %d bytes", len(stream), len(got))
		}
		for _, key := range trained.Keys {
			q := trained.ByKey[key].Set
			if got, want := x.Lookup(q), union.FirstPosition(q); got != want {
				t.Fatalf("Lookup(%v) = %d, want first position %d", q, got, want)
			}
		}
		for _, q := range ins {
			if got, want := x.Lookup(q), union.FirstPosition(q); got != want {
				t.Fatalf("Lookup(inserted %v) = %d, want first position %d", q, got, want)
			}
		}
	})

	t.Run("estimator", func(t *testing.T) {
		stream := parentFixture(t, "card")
		e, err := LoadShardedEstimator(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if got := resave(t, e.Save); !bytes.Equal(got, stream) {
			t.Fatalf("re-save not byte-identical: %d → %d bytes", len(stream), len(got))
		}
		if got := e.Estimate(sets.New(c.MaxID() + 5)); got != 3 {
			t.Fatalf("override of an absent set = %g, want 3", got)
		}
		// The second override was recorded before the retrain and the last
		// insert; it keeps counting later inserts that contain it.
		q := c.At(5)[:1]
		want := 7.0
		if ins[len(ins)-1].ContainsAll(q) {
			want++
		}
		if got := e.Estimate(q); got != want {
			t.Fatalf("override of %v = %g, want %g", q, got, want)
		}
	})

	t.Run("filter", func(t *testing.T) {
		stream := parentFixture(t, "member")
		f, err := LoadShardedFilter(bytes.NewReader(stream))
		if err != nil {
			t.Fatal(err)
		}
		if got := resave(t, f.Save); !bytes.Equal(got, stream) {
			t.Fatalf("re-save not byte-identical: %d → %d bytes", len(stream), len(got))
		}
		for _, key := range trained.Keys {
			if q := trained.ByKey[key].Set; !f.Contains(q) {
				t.Fatalf("false negative for trained subset %v", q)
			}
		}
		// Absorbed sets are covered within the size cap (their subsets are
		// trained); the pending one is exact at any size.
		for i, q := range ins {
			if (len(q) <= f.MaxSubset() || i == len(ins)-1) && !f.Contains(q) {
				t.Fatalf("false negative for inserted set %v", q)
			}
		}
	})
}

// asV1 rewrites a saved container's header in the version-1 format: kind,
// shard layout and subset cap, the estimator's overrides and bounds, and
// position maps for the index only. Everything later versions added — the
// insert log, pending deltas, build options and prune state — is dropped.
func asV1(tb testing.TB, stream []byte) []byte {
	tb.Helper()
	return rewriteHeader(tb, stream, func(h *containerHeader) {
		v1 := containerHeader{
			Version:     1,
			Kind:        h.Kind,
			Shards:      h.Shards,
			Partitioner: h.Partitioner,
			MaxSubset:   h.MaxSubset,
			ShardSets:   h.ShardSets,
			AuxKeys:     h.AuxKeys,
			AuxVals:     h.AuxVals,
			Bounds:      h.Bounds,
		}
		if h.Kind == "index" {
			v1.Globals = h.Globals
		}
		*h = v1
	})
}

// TestV1Streams: a v1 stream of each kind loads, answers trained subsets
// exactly (index) or without false negatives (filter), refuses to retrain,
// and survives Save → Load with byte-identical re-saves.
func TestV1Streams(t *testing.T) {
	fc := buildIOCorpus(t)
	st := dataset.CollectSubsets(fc.c, 2)

	refuses := func(t *testing.T, r Retrainable, attach func(*sets.Collection) error) {
		t.Helper()
		if s := r.StalestShard(1); s != -1 {
			t.Fatalf("StalestShard = %d, want -1", s)
		}
		if err := r.RetrainShard(0); err == nil {
			t.Fatal("v1 container retrained")
		}
		if err := attach(fc.c); err == nil {
			t.Fatal("v1 container attached a collection")
		}
	}

	t.Run("index", func(t *testing.T) {
		load := func(b []byte) *Index {
			t.Helper()
			x, err := LoadShardedIndex(bytes.NewReader(b), fc.c)
			if err != nil {
				t.Fatal(err)
			}
			return x
		}
		x := load(asV1(t, fc.index))
		refuses(t, x, x.AttachCollection)
		first := resave(t, x.Save)
		x2 := load(first)
		if second := resave(t, x2.Save); !bytes.Equal(first, second) {
			t.Fatalf("re-saved v1 index not byte-identical: %d → %d bytes", len(first), len(second))
		}
		for _, key := range st.Keys {
			info := st.ByKey[key]
			if got := x.Lookup(info.Set); got != info.FirstPos {
				t.Fatalf("Lookup(%v) = %d, want %d", info.Set, got, info.FirstPos)
			}
			if got := x2.Lookup(info.Set); got != info.FirstPos {
				t.Fatalf("reloaded Lookup(%v) = %d, want %d", info.Set, got, info.FirstPos)
			}
		}
	})

	t.Run("estimator", func(t *testing.T) {
		load := func(b []byte) *Estimator {
			t.Helper()
			e, err := LoadShardedEstimator(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			return e
		}
		e := load(asV1(t, fc.card))
		refuses(t, e, e.AttachCollection)
		first := resave(t, e.Save)
		e2 := load(first)
		if second := resave(t, e2.Save); !bytes.Equal(first, second) {
			t.Fatalf("re-saved v1 estimator not byte-identical: %d → %d bytes", len(first), len(second))
		}
		refuses(t, e2, e2.AttachCollection)
		for _, key := range st.Keys {
			q := st.ByKey[key].Set
			if got, want := e2.Estimate(q), e.Estimate(q); got != want {
				t.Fatalf("reloaded Estimate(%v) = %g, the v1 stream answers %g", q, got, want)
			}
		}
		if got := e2.Estimate(sets.New(fc.c.MaxID() + 5)); got != 3 {
			t.Fatalf("reloaded override = %g, want 3", got)
		}
		if _, ok := e2.CombinedErrorBound(); !ok {
			t.Fatal("measured bounds lost in the v1 round trip")
		}
	})

	t.Run("filter", func(t *testing.T) {
		load := func(b []byte) *Filter {
			t.Helper()
			f, err := LoadShardedFilter(bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			return f
		}
		f := load(asV1(t, fc.member))
		refuses(t, f, f.AttachCollection)
		first := resave(t, f.Save)
		f2 := load(first)
		if second := resave(t, f2.Save); !bytes.Equal(first, second) {
			t.Fatalf("re-saved v1 filter not byte-identical: %d → %d bytes", len(first), len(second))
		}
		refuses(t, f2, f2.AttachCollection)
		for _, key := range st.Keys {
			q := st.ByKey[key].Set
			if !f.Contains(q) || !f2.Contains(q) {
				t.Fatalf("false negative for trained subset %v", q)
			}
		}
	})
}

// TestEmptyShardAttach: a saved container with an empty shard (no trained
// sets, hence no position map) attaches its collection after a load, and
// the empty shard then absorbs an insert by retraining — exactly as the
// never-saved container does.
func TestEmptyShardAttach(t *testing.T) {
	const k = 8
	c := dataset.GenerateSD(12, 20, 71)
	o := Options{Shards: k, Partitioner: HashBySet}
	idx, err := BuildShardedIndex(c, o, mutIndexOpts())
	if err != nil {
		t.Fatal(err)
	}
	est, err := BuildShardedEstimator(c, o, mutEstOpts())
	if err != nil {
		t.Fatal(err)
	}
	flt, err := BuildShardedFilter(c, o, mutFltOpts())
	if err != nil {
		t.Fatal(err)
	}
	empty := -1
	for s, bs := range idx.BuildStats() {
		if bs.Sets == 0 {
			empty = s
			break
		}
	}
	if empty < 0 {
		t.Fatal("no empty shard in the fixture partition")
	}
	// A set of fresh elements that hash-routes to the empty shard.
	var q sets.Set
	for id := c.MaxID() + 1; q == nil; id++ {
		if cand := sets.New(id, id+1, id+2); idx.route.owner(cand) == empty {
			q = cand
		}
	}

	lx, err := LoadShardedIndex(bytes.NewReader(resave(t, idx.Save)), c)
	if err != nil {
		t.Fatal(err)
	}
	le, err := LoadShardedEstimator(bytes.NewReader(resave(t, est.Save)))
	if err != nil {
		t.Fatal(err)
	}
	lf, err := LoadShardedFilter(bytes.NewReader(resave(t, flt.Save)))
	if err != nil {
		t.Fatal(err)
	}
	for name, attach := range map[string]func(*sets.Collection) error{
		"index": lx.AttachCollection, "estimator": le.AttachCollection, "filter": lf.AttachCollection,
	} {
		if err := attach(c); err != nil {
			t.Fatalf("%s: AttachCollection: %v", name, err)
		}
	}
	pos := lx.InsertSet(q)
	for _, r := range []interface{ InsertSet(sets.Set) int }{idx, est, flt, le, lf} {
		r.InsertSet(q)
	}
	if got := le.Estimate(q); got != 1 {
		t.Fatalf("pending Estimate(%v) = %g, want 1", q, got)
	}
	for name, r := range map[string]Retrainable{
		"index": idx, "estimator": est, "filter": flt,
		"loaded index": lx, "loaded estimator": le, "loaded filter": lf,
	} {
		if got := r.DeltaStats().PerShard[empty]; got != 1 {
			t.Fatalf("%s: delta sizes %v, want the insert pending in shard %d", name, r.DeltaStats().PerShard, empty)
		}
		if err := r.RetrainShard(empty); err != nil {
			t.Fatalf("%s: RetrainShard(%d): %v", name, empty, err)
		}
		if ds := r.DeltaStats(); ds.Pending != 0 || ds.Absorbed != 1 {
			t.Fatalf("%s: after retrain DeltaStats = %+v, want the insert absorbed", name, ds)
		}
	}
	if st := lx.states[empty].Load(); st.m == nil || st.stat.Sets != 1 {
		t.Fatalf("retrained shard %d has no model over its one set", empty)
	}
	if got := lx.Lookup(q); got != pos {
		t.Fatalf("Lookup(%v) = %d, want %d", q, got, pos)
	}
	if got, want := le.Estimate(q), est.Estimate(q); got != want {
		t.Fatalf("Estimate(%v) = %g, the never-saved estimator answers %g", q, got, want)
	}
	if !lf.Contains(q) {
		t.Fatalf("Contains(%v) = false after retrain", q)
	}
	for name, pair := range map[string][2]func(io.Writer) error{
		"index":     {idx.states[empty].Load().m.Save, lx.states[empty].Load().m.Save},
		"estimator": {est.states[empty].Load().m.Save, le.states[empty].Load().m.Save},
		"filter":    {flt.states[empty].Load().m.Save, lf.states[empty].Load().m.Save},
	} {
		if !bytes.Equal(resave(t, pair[0]), resave(t, pair[1])) {
			t.Fatalf("%s: shard %d retrained after load differs from the never-saved retrain", name, empty)
		}
	}
}

// TestEmptyShardRetrainSmallUniverse: an empty shard whose first insert is
// one 2-element set retrains over fewer distinct elements than the filter's
// MaxSubset of 3. The negative sampler used to spin there forever, with
// RetrainShard holding retrainMu.
func TestEmptyShardRetrainSmallUniverse(t *testing.T) {
	c := dataset.GenerateSD(12, 20, 71)
	flt, err := BuildShardedFilter(c, Options{Shards: 8, Partitioner: HashBySet}, mutFltOpts())
	if err != nil {
		t.Fatal(err)
	}
	empty := -1
	for s, bs := range flt.BuildStats() {
		if bs.Sets == 0 {
			empty = s
			break
		}
	}
	if empty < 0 {
		t.Fatal("no empty shard in the fixture partition")
	}
	var q sets.Set
	for id := c.MaxID() + 1; q == nil; id++ {
		if cand := sets.New(id, id+1); flt.route.owner(cand) == empty {
			q = cand
		}
	}
	flt.InsertSet(q)
	if err := flt.RetrainShard(empty); err != nil {
		t.Fatalf("RetrainShard(%d): %v", empty, err)
	}
	if ds := flt.DeltaStats(); ds.Pending != 0 || ds.Absorbed != 1 {
		t.Fatalf("after retrain DeltaStats = %+v, want the insert absorbed", ds)
	}
	if !flt.Contains(q) {
		t.Fatalf("Contains(%v) = false after retrain", q)
	}
}
