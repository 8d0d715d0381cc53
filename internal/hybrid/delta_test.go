package hybrid

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"setlearn/internal/dataset"
	"setlearn/internal/sets"
)

func TestDeltaEmpty(t *testing.T) {
	d := NewDelta()
	if d.Len() != 0 || d.Age() != 0 {
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
	if d.Age() <= 0 {
		t.Fatal("non-empty delta must report positive age")
	}
	// 3 entries × (8 pos + 4 count), 1 late entry (position 7 after 10),
	// postings of ids 1-3 as one-word bitmaps and of id 4 as a one-slot
	// array, and 4 ids × (key + index + header + map overhead).
	if got, want := d.SizeBytes(), 3*12+4+4*4+4*(8+postingBytes+mapEntryOverhead); got != want {
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
	if nd.Len() != 1 || nd.FirstPos(sets.New(3), false) != 2 {
		t.Fatal("NewDeltaFrom must preserve entries")
	}
	if NewDeltaFrom(nil).Len() != 0 {
		t.Fatal("NewDeltaFrom(nil) must be empty")
	}
}

// TestDeltaSnapshotAppendIsolated: snapshot sets are cap-limited views into
// one array, so appending to one reallocates instead of overwriting the
// next entry's ids, and later Adds (including ones that turn postings into
// bitmaps) never change a snapshot already taken.
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

// naiveDelta is the reference the posting-list Delta must agree with: one
// DeltaEntry per insert and a plain linear scan.
type naiveDelta struct{ entries []DeltaEntry }

func (o *naiveDelta) add(s sets.Set, pos int) {
	o.entries = append(o.entries, DeltaEntry{Pos: pos, Set: s.Clone()})
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

// sizeBytes follows Delta.SizeBytes from the entries alone: a posting's
// last add picked its form, so an id held by n entries, the last of them
// entry e, costs min(n, e/32+1) four-byte slots.
func (o *naiveDelta) sizeBytes() int {
	total, top := 12*len(o.entries), 0
	n, last := map[uint32]int{}, map[uint32]int{}
	for e, en := range o.entries {
		if e > 0 && en.Pos < top {
			total += 4 // a late entry
		} else {
			top = en.Pos
		}
		for _, id := range en.Set {
			n[id]++
			last[id] = e
		}
	}
	for id, c := range n {
		total += 4*min(c, last[id]/32+1) + 8 + postingBytes + mapEntryOverhead
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
	if !sameEntries(d.Snapshot(), o.entries) {
		t.Fatalf("%s: Snapshot differs from the oracle's entries", name)
	}
	checkQueries(t, name, d, o, queries)
	if d.SizeBytes() != o.sizeBytes() {
		t.Fatalf("%s: SizeBytes = %d, oracle %d", name, d.SizeBytes(), o.sizeBytes())
	}
}

// checkQueries compares the Delta's answers to queries with the oracle's.
func checkQueries(t *testing.T, name string, d *Delta, o *naiveDelta, queries []sets.Set) {
	t.Helper()
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

// formLog counts, over a replay of Adds, how often a posting turned into a
// bitmap and how often back into an array.
type formLog struct {
	bitmap            map[uint32]bool // each id's form after its last Add
	toBitmap, toArray int
}

// observe records the forms of s's postings right after d.Add(s, ·); only
// those can have changed.
func (f *formLog) observe(d *Delta, s sets.Set) {
	if f.bitmap == nil {
		f.bitmap = map[uint32]bool{}
	}
	for _, id := range s {
		bm := d.post[d.ids[id]].bitmap
		if was, ok := f.bitmap[id]; ok && was != bm {
			if bm {
				f.toBitmap++
			} else {
				f.toArray++
			}
		}
		f.bitmap[id] = bm
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
// over inputs chosen to stress the postings, checking every method after
// every insert batch and the NewDeltaFrom(Tail(cut)) round trip at every
// cut.
func TestDeltaDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	type scenario struct {
		name    string
		entries []sets.Set
		pos     []int
		queries []sets.Set
		// switches: some posting must turn into a bitmap and back.
		switches bool
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
		scs = append(scs, scenario{name: "random", entries: es, pos: ps, queries: qs})
	}

	// A dense twelve-id vocabulary whose ids share one sets.Signature bit,
	// with equal-lookups on unequal sets of one signature.
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
		scs = append(scs, scenario{name: "colliding", entries: es, pos: ps, queries: qs})
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
		scs = append(scs, scenario{name: "maxuint", entries: es, pos: ps, queries: qs})
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
		scs = append(scs, scenario{name: "unordered-pos", entries: es, pos: ps, queries: qs})
	}

	// Ascending positions with occasional adjacent swaps, the order racing
	// core InsertSet calls produce: each swap leaves a late entry.
	{
		var es []sets.Set
		var ps []int
		for i := 0; i < 400; i++ {
			es = append(es, randomSet(rng, 6, func() uint32 { return uint32(rng.Intn(40)) }))
			ps = append(ps, 1000+i)
			if i > 0 && rng.Intn(8) == 0 {
				ps[i-1], ps[i] = ps[i], ps[i-1]
			}
		}
		qs := subsetsOf(rng, es, 41)
		scs = append(scs, scenario{name: "racing-pos", entries: es, pos: ps, queries: qs})
	}

	// An id dense in the first 200 entries and then absent for 3,100: its
	// posting turns into a bitmap, back into an array when the id returns
	// (3,300 entries span more bitmap words than it has entries), and into
	// a bitmap again. Beside it, 50 ids spread thinly over every entry.
	{
		const x = 7
		var es []sets.Set
		var ps []int
		for i := 0; i < 3400; i++ {
			ids := []uint32{uint32(100 + rng.Intn(50))}
			if (i < 200 && i%2 == 0) || i >= 3300 {
				ids = append(ids, x)
			}
			es = append(es, sets.New(ids...))
			ps = append(ps, i)
		}
		qs := []sets.Set{sets.New(x), sets.New(x, 200)}
		for y := uint32(100); y < 150; y += 7 {
			qs = append(qs, sets.New(y), sets.New(x, y))
		}
		scs = append(scs, scenario{name: "form-switch", entries: es, pos: ps, queries: qs, switches: true})
	}

	empties := []sets.Set{nil, sets.New()}
	for _, sc := range scs {
		qs := append(append([]sets.Set(nil), sc.queries...), empties...)
		d, o := NewDelta(), &naiveDelta{}
		var forms formLog
		checkOracle(t, sc.name+"/empty", d, o, qs)
		for i, s := range sc.entries {
			d.Add(s, sc.pos[i])
			o.add(s, sc.pos[i])
			forms.observe(d, s)
			if i%37 == 0 || i == len(sc.entries)-1 {
				checkOracle(t, sc.name, d, o, qs)
			}
		}
		if sc.switches && (forms.toBitmap < 2 || forms.toArray < 1) {
			t.Fatalf("%s: %d switches to a bitmap and %d back to an array, want 2 and 1", sc.name, forms.toBitmap, forms.toArray)
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
// builds: 6800 GenerateRW sets over a 1500-id vocabulary to insert, and
// 4096 subset queries drawn from the trained collection.
func ingestFixture() (inserts, queries []sets.Set) {
	return dataset.GenerateRW(6800, 1500, 4).Sets, dataset.QueryWorkload(dataset.GenerateRW(1000, 1500, 1), 4096, 3, 2)
}

// deltaOf returns a delta holding ss at positions 1000 onward.
func deltaOf(ss []sets.Set) *Delta {
	d := NewDelta()
	for i, s := range ss {
		d.Add(s, 1000+i)
	}
	return d
}

// TestDeltaSizeBytesTracksHeap: on the ingest fixture, SizeBytes is within
// 25% of the heap the delta holds (runtime.MemStats around its build, GC
// forced), and no more than the 271,844 bytes the entry-major layout
// before posting lists reported there.
func TestDeltaSizeBytesTracksHeap(t *testing.T) {
	ins, _ := ingestFixture()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := deltaOf(ins)
	runtime.GC()
	runtime.ReadMemStats(&after)
	heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	size := int64(d.SizeBytes())
	runtime.KeepAlive(d)
	runtime.KeepAlive(ins)
	t.Logf("SizeBytes %d, heap growth %d", size, heap)
	if size > 271844 {
		t.Errorf("SizeBytes = %d, above the entry-major layout's 271844", size)
	}
	if diff := size - heap; diff > heap/4 || -diff > heap/4 {
		t.Errorf("SizeBytes = %d, more than 25%% off the heap growth %d", size, heap)
	}
}

// TestDeltaReadsAllocFree pins the delta read paths at zero allocations on
// a non-empty delta: an array lead probing a bitmap, an AND of bitmaps,
// and a late entry that FirstPos finds after its main scan.
func TestDeltaReadsAllocFree(t *testing.T) {
	d := NewDelta()
	for i := 0; i < 64; i++ {
		d.Add(sets.New(uint32(i%7), uint32(i), uint32(100+i)), i)
	}
	d.Add(sets.New(3, 10), 5)
	for _, q := range []sets.Set{sets.New(3, 10), sets.New(3, 5)} {
		if n := testing.AllocsPerRun(100, func() { d.Count(q) }); n != 0 {
			t.Errorf("Count(%v) allocates %v per call", q, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.Contains(q) }); n != 0 {
			t.Errorf("Contains(%v) allocates %v per call", q, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.FirstPos(q, false) }); n != 0 {
			t.Errorf("FirstPos(%v) allocates %v per call", q, n)
		}
		if n := testing.AllocsPerRun(100, func() { d.FirstPos(q, true) }); n != 0 {
			t.Errorf("FirstPos(%v, equal) allocates %v per call", q, n)
		}
	}
	if got := d.FirstPos(sets.New(3, 10), false); got != 5 {
		t.Fatalf("FirstPos({3,10}) = %d, want the late entry's 5", got)
	}
}

// Package-level sinks keep the compiler from discarding benchmarked calls.
var (
	benchCount float64
	benchPos   int
	benchHit   bool
)

// benchDeltaRead times read over the ingest fixture's queries, against its
// whole delta and against its first 64 sets, the pending count at which
// setlearnd's trainer retrains by default (-delta-threshold).
func benchDeltaRead(b *testing.B, read func(d *Delta, q sets.Set)) {
	ins, qs := ingestFixture()
	for _, n := range []int{len(ins), 64} {
		d := deltaOf(ins[:n])
		b.Run(fmt.Sprintf("pending=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				read(d, qs[i%len(qs)])
			}
		})
	}
}

func BenchmarkDeltaCount(b *testing.B) {
	benchDeltaRead(b, func(d *Delta, q sets.Set) { benchCount = d.Count(q) })
}

func BenchmarkDeltaFirstPos(b *testing.B) {
	benchDeltaRead(b, func(d *Delta, q sets.Set) { benchPos = d.FirstPos(q, false) })
}

func BenchmarkDeltaContains(b *testing.B) {
	benchDeltaRead(b, func(d *Delta, q sets.Set) { benchHit = d.Contains(q) })
}

// BenchmarkDeltaAdd inserts the ingest fixture's sets into a fresh delta,
// starting over once all are in, so ns/op is the cost of one set.
func BenchmarkDeltaAdd(b *testing.B) {
	ins, _ := ingestFixture()
	b.ReportAllocs()
	b.ResetTimer()
	var d *Delta
	for i := 0; i < b.N; i++ {
		j := i % len(ins)
		if j == 0 {
			d = NewDelta()
		}
		d.Add(ins[j], 1000+j)
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
					// Snapshot rebuilds sets from the postings Add
					// appends to; reading them must not race with the
					// writers.
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
