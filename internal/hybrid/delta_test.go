package hybrid

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

func TestDeltaEmpty(t *testing.T) {
	d := NewDelta()
	if d.Len() != 0 || d.Age() != 0 || d.MaxID() != 0 {
		t.Fatal("empty delta must report zero state")
	}
	if d.FirstPos(sets.New(1), false) != -1 {
		t.Fatal("empty delta FirstPos must miss")
	}
	if d.Count(sets.New(1)) != 0 || d.Contains(sets.New(1)) {
		t.Fatal("empty delta must not answer positively")
	}
	if d.Snapshot() != nil || d.Tail(0) != nil {
		t.Fatal("empty delta snapshots must be nil")
	}
	if d.SizeBytes() != 0 {
		t.Fatalf("empty delta SizeBytes = %d, want 0", d.SizeBytes())
	}
}

func TestDeltaAnswers(t *testing.T) {
	d := NewDelta()
	d.Add(sets.New(1, 2, 3), 10)
	d.Add(sets.New(2, 3, 4), 7)
	d.Add(sets.New(1, 2, 3), 12)

	// FirstPos is the minimum matching position, not insertion order.
	if got := d.FirstPos(sets.New(2, 3), false); got != 7 {
		t.Fatalf("FirstPos({2,3}) = %d, want 7", got)
	}
	if got := d.FirstPos(sets.New(1, 2), false); got != 10 {
		t.Fatalf("FirstPos({1,2}) = %d, want 10", got)
	}
	if got := d.FirstPos(sets.New(5), false); got != -1 {
		t.Fatalf("FirstPos({5}) = %d, want -1", got)
	}
	// Equality matches only exactly-equal entries.
	if got := d.FirstPos(sets.New(1, 2, 3), true); got != 10 {
		t.Fatalf("FirstPos equal = %d, want 10", got)
	}
	if got := d.FirstPos(sets.New(2, 3), true); got != -1 {
		t.Fatalf("FirstPos equal on strict subset = %d, want -1", got)
	}
	// Empty queries defer to the structure's own convention.
	if d.FirstPos(sets.New(), false) != -1 || d.Count(sets.New()) != 0 || d.Contains(sets.New()) {
		t.Fatal("empty query must not be answered by the delta")
	}

	if got := d.Count(sets.New(2, 3)); got != 3 {
		t.Fatalf("Count({2,3}) = %g, want 3", got)
	}
	if got := d.Count(sets.New(4)); got != 1 {
		t.Fatalf("Count({4}) = %g, want 1", got)
	}
	if !d.Contains(sets.New(1, 3)) || d.Contains(sets.New(1, 4)) {
		t.Fatal("Contains must be exact subset containment per entry")
	}
	if d.MaxID() != 4 {
		t.Fatalf("MaxID = %d, want 4", d.MaxID())
	}
	if d.Age() <= 0 {
		t.Fatal("non-empty delta must report positive age")
	}
	// 3 entries × (8 sig + 8 pos + 4 off) + the leading offset + 9 ids × 4.
	if got, want := d.SizeBytes(), 3*20+4+9*4; got != want {
		t.Fatalf("SizeBytes = %d, want %d", got, want)
	}
}

func TestDeltaSnapshotTail(t *testing.T) {
	d := NewDelta()
	d.Add(sets.New(1), 0)
	d.Add(sets.New(2), 1)
	snap := d.Snapshot()
	cut := len(snap)
	d.Add(sets.New(3), 2)

	// The snapshot is a copy: later Adds must not grow it.
	if len(snap) != 2 {
		t.Fatalf("snapshot grew to %d entries", len(snap))
	}
	tail := d.Tail(cut)
	if len(tail) != 1 || tail[0].Pos != 2 {
		t.Fatalf("Tail(%d) = %v, want the one post-snapshot entry", cut, tail)
	}
	if d.Tail(99) != nil {
		t.Fatal("Tail past the end must be nil")
	}

	// NewDeltaFrom carries the tail into a fresh delta.
	nd := NewDeltaFrom(tail)
	if nd.Len() != 1 || nd.FirstPos(sets.New(3), false) != 2 || nd.MaxID() != 3 {
		t.Fatal("NewDeltaFrom must preserve entries")
	}
	if NewDeltaFrom(nil).Len() != 0 {
		t.Fatal("NewDeltaFrom(nil) must be empty")
	}
}

// TestDeltaSnapshotAppendIsolated: snapshot sets are cap-limited views into
// the element arena, so appending to one reallocates instead of overwriting
// the next entry's ids, and later Adds (including ones that grow the arena)
// never change a snapshot already taken.
func TestDeltaSnapshotAppendIsolated(t *testing.T) {
	d := NewDelta()
	d.Add(sets.New(1, 2), 0)
	d.Add(sets.New(3, 4), 1)
	snap := d.Snapshot()
	grown := append(snap[0].Set, 99)
	if !grown.Equal(sets.New(1, 2, 99)) {
		t.Fatalf("append to snapshot set = %v", grown)
	}
	if got := d.Snapshot()[1].Set; !got.Equal(sets.New(3, 4)) {
		t.Fatalf("entry 1 = %v after appending to entry 0's snapshot, want {3,4}", got)
	}
	if d.Contains(sets.New(99)) || d.Count(sets.New(3, 4)) != 1 {
		t.Fatal("appending to a snapshot set leaked into the delta")
	}

	for i := 0; i < 1000; i++ {
		d.Add(sets.New(uint32(1000+i), uint32(5000+i)), 2+i)
	}
	if !snap[0].Set.Equal(sets.New(1, 2)) || !snap[1].Set.Equal(sets.New(3, 4)) {
		t.Fatalf("snapshot changed after later Adds: %v", snap)
	}
}

// TestDeltaCopiesOnAdd: the delta owns its ids, so a caller reusing the
// slice it passed to Add cannot change the recorded entry.
func TestDeltaCopiesOnAdd(t *testing.T) {
	d := NewDelta()
	s := sets.New(5, 6, 7)
	d.Add(s, 0)
	s[0] = 1
	if d.Contains(sets.New(1)) || !d.Contains(sets.New(5, 6)) {
		t.Fatal("Add must copy the set into the delta")
	}
}

// naiveDelta is the reference the arena-and-signature Delta must agree
// with: one DeltaEntry per insert and a plain linear scan with no
// signature filter.
type naiveDelta struct{ entries []DeltaEntry }

func (o *naiveDelta) add(s sets.Set, pos int) {
	o.entries = append(o.entries, DeltaEntry{Pos: pos, Set: s.Clone()})
}

func (o *naiveDelta) maxID() uint32 {
	var m uint32
	for _, en := range o.entries {
		if n := len(en.Set); n > 0 && en.Set[n-1] > m {
			m = en.Set[n-1]
		}
	}
	return m
}

func (o *naiveDelta) firstPos(q sets.Set, equal bool) int {
	if len(q) == 0 {
		return -1
	}
	best := -1
	for _, en := range o.entries {
		var hit bool
		if equal {
			hit = en.Set.Equal(q)
		} else {
			hit = en.Set.ContainsAll(q)
		}
		if hit && (best < 0 || en.Pos < best) {
			best = en.Pos
		}
	}
	return best
}

func (o *naiveDelta) count(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	n := 0
	for _, en := range o.entries {
		if en.Set.ContainsAll(q) {
			n++
		}
	}
	return float64(n)
}

func (o *naiveDelta) contains(q sets.Set) bool {
	return o.count(q) > 0
}

func (o *naiveDelta) sizeBytes() int {
	if len(o.entries) == 0 {
		return 0
	}
	total := 4 // the leading zero offset
	for _, en := range o.entries {
		total += 8 + 8 + 4 + 4*len(en.Set)
	}
	return total
}

func sameEntries(a, b []DeltaEntry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Pos != b[i].Pos || !a[i].Set.Equal(b[i].Set) {
			return false
		}
	}
	return true
}

// checkOracle compares every Delta method against the naive oracle.
func checkOracle(t *testing.T, name string, d *Delta, o *naiveDelta, queries []sets.Set) {
	t.Helper()
	if d.Len() != len(o.entries) {
		t.Fatalf("%s: Len = %d, oracle %d", name, d.Len(), len(o.entries))
	}
	if d.MaxID() != o.maxID() {
		t.Fatalf("%s: MaxID = %d, oracle %d", name, d.MaxID(), o.maxID())
	}
	if d.SizeBytes() != o.sizeBytes() {
		t.Fatalf("%s: SizeBytes = %d, oracle %d", name, d.SizeBytes(), o.sizeBytes())
	}
	if !sameEntries(d.Snapshot(), o.entries) {
		t.Fatalf("%s: Snapshot differs from the oracle's entries", name)
	}
	for _, q := range queries {
		for _, equal := range []bool{false, true} {
			if got, want := d.FirstPos(q, equal), o.firstPos(q, equal); got != want {
				t.Fatalf("%s: FirstPos(%v, equal=%v) = %d, oracle %d", name, q, equal, got, want)
			}
		}
		if got, want := d.Count(q), o.count(q); got != want {
			t.Fatalf("%s: Count(%v) = %g, oracle %g", name, q, got, want)
		}
		if got, want := d.Contains(q), o.contains(q); got != want {
			t.Fatalf("%s: Contains(%v) = %v, oracle %v", name, q, got, want)
		}
	}
}

// collidingIDs returns n ids (starting the search at from) whose signature
// bit equals that of target, so sets built from them share signatures.
func collidingIDs(target, from uint32, n int) []uint32 {
	var out []uint32
	bit := sets.Signature(sets.Set{target})
	for id := from; len(out) < n; id++ {
		if id != target && sets.Signature(sets.Set{id}) == bit {
			out = append(out, id)
		}
	}
	return out
}

func randomSet(rng *rand.Rand, maxLen int, id func() uint32) sets.Set {
	ids := make([]uint32, rng.Intn(maxLen+1))
	for i := range ids {
		ids[i] = id()
	}
	return sets.New(ids...)
}

// subsetsOf returns every entry's random sub-queries plus their
// one-element extensions, so the query mix has hits and near misses.
func subsetsOf(rng *rand.Rand, entries []sets.Set, extra uint32) []sets.Set {
	var qs []sets.Set
	for _, s := range entries {
		var sub []uint32
		for _, id := range s {
			if rng.Intn(2) == 0 {
				sub = append(sub, id)
			}
		}
		qs = append(qs, sets.New(sub...), sets.New(append(sub, extra)...), s)
	}
	return qs
}

// TestDeltaDifferential runs the Delta and the naive oracle side by side
// over inputs chosen to stress the signature filter, checking every method
// after every insert batch and the NewDeltaFrom(Tail(cut)) round trip at
// every cut.
func TestDeltaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type scenario struct {
		name    string
		entries []sets.Set
		pos     []int
		queries []sets.Set
	}
	var scs []scenario

	// Seeded random sets over a small vocabulary (many true hits), with
	// increasing positions.
	{
		var es []sets.Set
		var ps []int
		for i := 0; i < 300; i++ {
			es = append(es, randomSet(rng, 8, func() uint32 { return uint32(rng.Intn(60)) }))
			ps = append(ps, i)
		}
		qs := subsetsOf(rng, es, 61)
		for i := 0; i < 200; i++ {
			qs = append(qs, randomSet(rng, 3, func() uint32 { return uint32(rng.Intn(62)) }))
		}
		scs = append(scs, scenario{"random", es, ps, qs})
	}

	// Ids that all share one signature bit: every signature test passes,
	// so only the exact merge can tell entries apart. Equal-lookups probe
	// same-signature but unequal sets.
	{
		col := append([]uint32{3}, collidingIDs(3, 0, 11)...)
		var es []sets.Set
		var ps []int
		for i := 0; i < 120; i++ {
			es = append(es, randomSet(rng, 4, func() uint32 { return col[rng.Intn(len(col))] }))
			ps = append(ps, i)
		}
		qs := subsetsOf(rng, es, col[len(col)-1])
		for i := range col {
			for j := i + 1; j < len(col); j++ {
				qs = append(qs, sets.New(col[i]), sets.New(col[i], col[j]))
			}
		}
		// Same signature, different sets: {a, x} vs {b, x} where a and b
		// set the same signature bit.
		x := uint32(1000)
		es = append(es, sets.New(col[0], x))
		ps = append(ps, 999)
		qs = append(qs, sets.New(col[1], x), sets.New(col[0], x), sets.New(col[0], col[1], x))
		scs = append(scs, scenario{"colliding", es, ps, qs})
	}

	// Ids near math.MaxUint32, including the maximum itself.
	{
		top := func() uint32 { return math.MaxUint32 - uint32(rng.Intn(40)) }
		var es []sets.Set
		var ps []int
		for i := 0; i < 150; i++ {
			es = append(es, randomSet(rng, 6, top))
			ps = append(ps, i)
		}
		es = append(es, sets.New(math.MaxUint32))
		ps = append(ps, 150)
		qs := subsetsOf(rng, es, math.MaxUint32-41)
		qs = append(qs, sets.New(math.MaxUint32), sets.New(math.MaxUint32-1, math.MaxUint32))
		scs = append(scs, scenario{"maxuint", es, ps, qs})
	}

	// Positions that are not increasing: shuffled and repeated, so FirstPos
	// must take the minimum rather than the first hit.
	{
		var es []sets.Set
		var ps []int
		for i := 0; i < 200; i++ {
			es = append(es, randomSet(rng, 5, func() uint32 { return uint32(rng.Intn(25)) }))
			ps = append(ps, rng.Intn(100))
		}
		qs := subsetsOf(rng, es, 30)
		scs = append(scs, scenario{"unordered-pos", es, ps, qs})
	}

	empties := []sets.Set{nil, sets.New()}
	for _, sc := range scs {
		qs := append(append([]sets.Set(nil), sc.queries...), empties...)
		d, o := NewDelta(), &naiveDelta{}
		checkOracle(t, sc.name+"/empty", d, o, qs)
		for i, s := range sc.entries {
			d.Add(s, sc.pos[i])
			o.add(s, sc.pos[i])
			if i%37 == 0 || i == len(sc.entries)-1 {
				checkOracle(t, sc.name, d, o, qs)
			}
		}
		for cut := 0; cut <= len(o.entries); cut += 1 + cut/4 {
			tail := d.Tail(cut)
			if !sameEntries(tail, o.entries[cut:]) {
				t.Fatalf("%s: Tail(%d) differs from the oracle", sc.name, cut)
			}
			checkOracle(t, sc.name+"/roundtrip", NewDeltaFrom(tail), &naiveDelta{entries: o.entries[cut:]}, qs)
		}
	}
}

// ingestFixture is the delta shape the setlearnbench ingest workload
// builds: 6800 GenerateRW sets over a 1500-id vocabulary, probed by 4096
// subset queries drawn from the trained collection.
func ingestFixture(tb testing.TB) (*Delta, []sets.Set) {
	tb.Helper()
	d := NewDelta()
	for i, s := range dataset.GenerateRW(6800, 1500, 4).Sets {
		d.Add(s, 1000+i)
	}
	return d, dataset.QueryWorkload(dataset.GenerateRW(1000, 1500, 1), 4096, 3, 2)
}

// TestDeltaReadsAllocFree pins the delta read paths at zero allocations on
// a non-empty delta; the noalloc analyzer checks Count and Contains
// statically, this checks all three at run time.
func TestDeltaReadsAllocFree(t *testing.T) {
	d := NewDelta()
	for i := 0; i < 64; i++ {
		d.Add(sets.New(uint32(i%7), uint32(i), uint32(100+i)), i)
	}
	q := sets.New(3, 10)
	if n := testing.AllocsPerRun(100, func() { d.Count(q) }); n != 0 {
		t.Errorf("Count allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.Contains(q) }); n != 0 {
		t.Errorf("Contains allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.FirstPos(q, false) }); n != 0 {
		t.Errorf("FirstPos allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { d.FirstPos(q, true) }); n != 0 {
		t.Errorf("FirstPos(equal) allocates %v per call", n)
	}
}

// Package-level sinks keep the compiler from discarding benchmarked calls.
var (
	benchCount float64
	benchPos   int
	benchHit   bool
)

func BenchmarkDeltaCount(b *testing.B) {
	d, qs := ingestFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchCount = d.Count(qs[i%len(qs)])
	}
}

func BenchmarkDeltaFirstPos(b *testing.B) {
	d, qs := ingestFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPos = d.FirstPos(qs[i%len(qs)], false)
	}
}

func BenchmarkDeltaContains(b *testing.B) {
	d, qs := ingestFixture(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchHit = d.Contains(qs[i%len(qs)])
	}
}

// TestDeltaConcurrent hammers one delta from readers and writers under
// -race: reads only ever see fully-appended entries.
func TestDeltaConcurrent(t *testing.T) {
	d := NewDelta()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					d.Add(sets.New(uint32(g), uint32(100+i)), g*200+i)
				} else {
					q := sets.New(uint32(g - 1))
					if p := d.FirstPos(q, false); p >= 0 && !d.Contains(q) {
						t.Error("FirstPos hit but Contains missed")
						return
					}
					d.Count(q)
					// Snapshot sets are views into the arena Add appends
					// to; reading them must not race with the writers.
					for _, en := range d.Snapshot() {
						if len(en.Set) != 2 {
							t.Errorf("snapshot entry %v torn", en)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if d.Len() != 4*200 {
		t.Fatalf("Len = %d, want %d", d.Len(), 4*200)
	}
}
