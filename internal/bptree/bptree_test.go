package bptree

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEmptyTree(t *testing.T) {
	tr := New(4)
	if tr.Len() != 0 {
		t.Fatalf("empty tree len=%d", tr.Len())
	}
	if _, ok := tr.Get(42); ok {
		t.Fatal("empty tree found a key")
	}
	if tr.Contains(42) {
		t.Fatal("empty tree Contains")
	}
}

func TestInsertAndGet(t *testing.T) {
	tr := New(4)
	tr.Insert(10, 1)
	tr.Insert(5, 2)
	tr.Insert(20, 3)
	vals, ok := tr.Get(5)
	if !ok || len(vals) != 1 || vals[0] != 2 {
		t.Fatalf("Get(5)=%v,%v", vals, ok)
	}
	if tr.Len() != 3 {
		t.Fatalf("Len=%d", tr.Len())
	}
}

func TestDuplicateKeysAccumulate(t *testing.T) {
	tr := New(4)
	tr.Insert(7, 30)
	tr.Insert(7, 10)
	tr.Insert(7, 20)
	vals, ok := tr.Get(7)
	if !ok || len(vals) != 3 {
		t.Fatalf("Get(7)=%v", vals)
	}
	if vals[0] != 30 || vals[1] != 10 || vals[2] != 20 {
		t.Fatalf("insertion order not kept: %v", vals)
	}
}

func TestSplitsSmallOrder(t *testing.T) {
	tr := New(3) // forces frequent splits
	const n = 1000
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i*7%n), uint32(i))
	}
	root, ok := tr.root.(*internal)
	if !ok {
		t.Fatal("expected multi-level tree, root is a leaf")
	}
	if _, ok := root.children[0].(*internal); !ok {
		t.Fatal("expected at least three levels, root's children are leaves")
	}
	for i := 0; i < n; i++ {
		if !tr.Contains(uint64(i)) {
			t.Fatalf("lost key %d after splits", i)
		}
	}
}

func TestAscendSortedAndComplete(t *testing.T) {
	tr := New(5)
	rng := rand.New(rand.NewSource(1))
	inserted := make(map[uint64]int)
	for i := 0; i < 500; i++ {
		k := uint64(rng.Intn(200))
		tr.Insert(k, uint32(i))
		inserted[k]++
	}
	var lastKey uint64
	first := true
	total := 0
	tr.Ascend(func(k uint64, v uint32) bool {
		if !first && k < lastKey {
			t.Fatalf("Ascend out of order: %d after %d", k, lastKey)
		}
		lastKey, first = k, false
		total++
		return true
	})
	if total != 500 {
		t.Fatalf("Ascend visited %d pairs want 500", total)
	}
}

func TestAscendEarlyStop(t *testing.T) {
	tr := New(4)
	for i := 0; i < 100; i++ {
		tr.Insert(uint64(i), uint32(i))
	}
	n := 0
	tr.Ascend(func(k uint64, v uint32) bool {
		n++
		return n < 10
	})
	if n != 10 {
		t.Fatalf("early stop visited %d", n)
	}
}

// Property test: the tree must agree with a map multimap reference under
// random workloads across random orders.
func TestMatchesReferenceMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		order := 3 + rng.Intn(8)
		tr := New(order)
		ref := make(map[uint64][]uint32)
		for i := 0; i < 400; i++ {
			k := uint64(rng.Intn(80))
			v := uint32(rng.Intn(1000))
			tr.Insert(k, v)
			ref[k] = append(ref[k], v)
		}
		if tr.Len() != 400 {
			return false
		}
		for k, want := range ref {
			got, ok := tr.Get(k)
			if !ok || len(got) != len(want) {
				return false
			}
			for i := range want {
				if got[i] != want[i] {
					return false
				}
			}
		}
		// Probe some absent keys.
		for i := 0; i < 50; i++ {
			k := uint64(100 + rng.Intn(1000))
			if _, present := ref[k]; !present && tr.Contains(k) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSizeBytesGrows(t *testing.T) {
	tr := New(DefaultOrder)
	empty := tr.SizeBytes()
	for i := 0; i < 10000; i++ {
		tr.Insert(uint64(i), uint32(i))
	}
	full := tr.SizeBytes()
	if full <= empty {
		t.Fatalf("SizeBytes did not grow: %d → %d", empty, full)
	}
	// At least the raw key+value payload must be accounted for.
	if full < 10000*(8+4) {
		t.Fatalf("SizeBytes %d below raw payload", full)
	}
}

func TestPanicsOnBadOrder(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(2)
}

func TestLargeSequentialAndReverse(t *testing.T) {
	for name, gen := range map[string]func(i int) uint64{
		"sequential": func(i int) uint64 { return uint64(i) },
		"reverse":    func(i int) uint64 { return uint64(100000 - i) },
	} {
		tr := New(DefaultOrder)
		const n = 50000
		for i := 0; i < n; i++ {
			tr.Insert(gen(i), uint32(i))
		}
		for i := 0; i < n; i += 97 {
			if !tr.Contains(gen(i)) {
				t.Fatalf("%s: lost key at i=%d", name, i)
			}
		}
	}
}

func BenchmarkInsert(b *testing.B) {
	tr := New(DefaultOrder)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Insert(rng.Uint64(), uint32(i))
	}
}

func BenchmarkGet(b *testing.B) {
	tr := New(DefaultOrder)
	const n = 100000
	for i := 0; i < n; i++ {
		tr.Insert(uint64(i), uint32(i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Get(uint64(i % n))
	}
}
