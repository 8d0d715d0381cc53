package sets

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewSortsAndDedups(t *testing.T) {
	s := New(5, 1, 3, 1, 5)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Fatalf("New got %v want %v", s, want)
	}
}

func TestNewEmpty(t *testing.T) {
	s := New()
	if s.Len() != 0 {
		t.Fatalf("empty set has len %d", s.Len())
	}
}

func TestFromSortedValidates(t *testing.T) {
	FromSorted([]uint32{1, 2, 3}) // must not panic
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for unsorted input")
		}
	}()
	FromSorted([]uint32{1, 3, 2})
}

func TestContainsAll(t *testing.T) {
	s := New(1, 3, 5, 7)
	cases := []struct {
		q    Set
		want bool
	}{
		{New(), true},
		{New(1), true},
		{New(7), true},
		{New(1, 7), true},
		{New(1, 3, 5, 7), true},
		{New(2), false},
		{New(1, 2), false},
		{New(1, 3, 5, 7, 9), false},
		{New(8), false},
	}
	for _, c := range cases {
		if got := s.ContainsAll(c.q); got != c.want {
			t.Fatalf("ContainsAll(%v)=%v want %v", c.q, got, c.want)
		}
	}
}

func TestContainsSingle(t *testing.T) {
	s := New(2, 4, 6)
	if !s.Contains(4) || s.Contains(5) || s.Contains(1) || s.Contains(7) {
		t.Fatal("Contains wrong")
	}
}

func TestKeyCanonical(t *testing.T) {
	a := New(300, 1, 70000)
	b := New(70000, 300, 1)
	if a.Key() != b.Key() {
		t.Fatal("Key must be permutation invariant")
	}
	if New(1, 2).Key() == New(1, 3).Key() {
		t.Fatal("distinct sets must have distinct keys")
	}
	// Keys must be injective across sizes too.
	if New(1).Key() == New(1, 0).Key() {
		t.Fatal("key collision between {1} and {0,1}")
	}
}

func TestFromKeyRoundTrip(t *testing.T) {
	cases := []Set{
		New(),
		New(0),
		New(1, 2, 3),
		New(300, 1, 70000),
		New(0, 127, 128, 16383, 16384, 1<<21, 1<<28, 0xFFFFFFFF),
	}
	for _, want := range cases {
		got, err := FromKey(want.Key())
		if err != nil {
			t.Fatalf("FromKey(Key(%v)): %v", want, err)
		}
		if !got.Equal(want) {
			t.Fatalf("FromKey(Key(%v)) = %v", want, got)
		}
	}
}

func TestFromKeyRejectsMalformed(t *testing.T) {
	bad := map[string]string{
		"truncated varint":        "\x80",
		"truncated second varint": New(1, 2).Key() + "\xFF",
		"uint32 overflow":         "\xFF\xFF\xFF\xFF\x7F",
		"six-byte varint":         "\x80\x80\x80\x80\x80\x01",
		"non-increasing ids":      "\x05\x05",
		"decreasing ids":          "\x05\x03",
	}
	for name, key := range bad {
		if s, err := FromKey(key); err == nil {
			t.Errorf("%s: FromKey(%q) = %v, want error", name, key, s)
		}
	}
}

func TestHashPermutationInvariant(t *testing.T) {
	a := New(9, 100, 5)
	b := New(5, 9, 100)
	if a.Hash() != b.Hash() {
		t.Fatal("Hash must be permutation invariant")
	}
	if New(1, 2).Hash() == New(1, 3).Hash() {
		t.Fatal("hashes of different sets should differ (FNV collision would be astonishing here)")
	}
}

func TestCloneIndependent(t *testing.T) {
	a := New(1, 2)
	b := a.Clone()
	b[0] = 9
	if a[0] != 1 {
		t.Fatal("Clone must copy")
	}
}

func TestSubsetsEnumeration(t *testing.T) {
	s := New(1, 2, 3)
	var got []string
	Subsets(s, 0, func(sub Set) { got = append(got, sub.String()) })
	if len(got) != 7 { // 2³−1
		t.Fatalf("expected 7 subsets, got %d: %v", len(got), got)
	}
	seen := make(map[string]bool)
	for _, k := range got {
		if seen[k] {
			t.Fatalf("duplicate subset %s", k)
		}
		seen[k] = true
	}
}

func TestSubsetsMaxSize(t *testing.T) {
	s := New(1, 2, 3, 4)
	count := 0
	maxLen := 0
	Subsets(s, 2, func(sub Set) {
		count++
		if sub.Len() > maxLen {
			maxLen = sub.Len()
		}
	})
	if count != 4+6 {
		t.Fatalf("C(4,1)+C(4,2)=10, got %d", count)
	}
	if maxLen != 2 {
		t.Fatalf("maxSize violated: %d", maxLen)
	}
}

func TestSubsetsAreCopies(t *testing.T) {
	s := New(1, 2)
	var subs []Set
	Subsets(s, 0, func(sub Set) { subs = append(subs, sub) })
	// Mutating one captured subset must not affect the others.
	subs[0][0] = 99
	for _, sub := range subs[1:] {
		for _, v := range sub {
			if v == 99 {
				t.Fatal("Subsets must pass fresh copies")
			}
		}
	}
}

func TestCountSubsetsMatchesEnumeration(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		maxSize := r.Intn(n + 2)
		ids := make([]uint32, n)
		for i := range ids {
			ids[i] = uint32(i * 3)
		}
		s := New(ids...)
		count := 0
		Subsets(s, maxSize, func(Set) { count++ })
		return count == CountSubsets(n, maxSize)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: every enumerated subset is a subset of its parent.
func TestSubsetsAreSubsets(t *testing.T) {
	s := New(2, 5, 8, 11, 14)
	Subsets(s, 0, func(sub Set) {
		if !s.ContainsAll(sub) {
			t.Fatalf("%v is not a subset of %v", sub, s)
		}
		if !sort.SliceIsSorted(sub, func(i, j int) bool { return sub[i] < sub[j] }) {
			t.Fatalf("subset %v not canonical", sub)
		}
	})
}

func TestDictAssignsAndLooksUp(t *testing.T) {
	d := NewDict()
	a := d.ID("pizza")
	b := d.ID("dinner")
	if a == b {
		t.Fatal("distinct names must get distinct ids")
	}
	if got := d.ID("pizza"); got != a {
		t.Fatal("ID must be stable")
	}
	if d.Name(a) != "pizza" || d.Name(b) != "dinner" {
		t.Fatal("Name reverse lookup broken")
	}
	if d.Len() != 2 {
		t.Fatalf("Len=%d want 2", d.Len())
	}
	if _, ok := d.Lookup("nope"); ok {
		t.Fatal("Lookup of unknown name must fail")
	}
}

func TestDictSetOfAndQueryOf(t *testing.T) {
	d := NewDict()
	s := d.SetOf("c", "a", "b", "a")
	if s.Len() != 3 {
		t.Fatalf("SetOf got %v", s)
	}
	q, ok := d.QueryOf("a", "b")
	if !ok || q.Len() != 2 {
		t.Fatalf("QueryOf got %v ok=%v", q, ok)
	}
	if _, ok := d.QueryOf("a", "unknown"); ok {
		t.Fatal("QueryOf with unknown name must report false")
	}
	if d.Len() != 3 {
		t.Fatal("QueryOf must not assign new ids")
	}
}

func TestCollectionSemantics(t *testing.T) {
	// The paper's Figure 1 example: four tweets of hashtags.
	d := NewDict()
	c := NewCollection([]Set{
		d.SetOf("pizza", "dinner", "yum"),
		d.SetOf("code", "go"),
		d.SetOf("pizza", "dinner"),
		d.SetOf("pizza", "dinner", "friends"),
	})
	q, _ := d.QueryOf("pizza", "dinner")
	if got := c.Cardinality(q); got != 3 {
		t.Fatalf("Cardinality=%d want 3", got)
	}
	if got := c.FirstPosition(q); got != 0 {
		t.Fatalf("FirstPosition=%d want 0", got)
	}
	if !c.Member(q) {
		t.Fatal("Member should be true")
	}
	q2, _ := d.QueryOf("code")
	if got := c.FirstPosition(q2); got != 1 {
		t.Fatalf("FirstPosition=%d want 1", got)
	}
	q3 := New(9999)
	if c.Member(q3) || c.FirstPosition(q3) != -1 || c.Cardinality(q3) != 0 {
		t.Fatal("absent query must be absent everywhere")
	}
}

func TestFirstPositionInRange(t *testing.T) {
	c := NewCollection([]Set{New(1), New(2), New(1), New(3)})
	q := New(1)
	if got := c.FirstPositionInRange(q, 1, 3); got != 2 {
		t.Fatalf("range search got %d want 2", got)
	}
	if got := c.FirstPositionInRange(q, -5, 100); got != 0 {
		t.Fatalf("clamped range search got %d want 0", got)
	}
	if got := c.FirstPositionInRange(New(9), 0, 3); got != -1 {
		t.Fatal("absent in range must be -1")
	}
}

func TestStats(t *testing.T) {
	c := NewCollection([]Set{New(1, 2), New(2, 3, 4), New(2)})
	st := c.Stats()
	if st.N != 3 || st.UniqueElem != 4 || st.MaxCard != 3 || st.MinSetSize != 1 || st.MaxSetSize != 3 {
		t.Fatalf("Stats got %+v", st)
	}
	empty := NewCollection(nil)
	if st := empty.Stats(); st.N != 0 {
		t.Fatalf("empty stats %+v", st)
	}
}

func TestElementFrequencies(t *testing.T) {
	c := NewCollection([]Set{New(1, 2), New(2)})
	f := c.ElementFrequencies()
	if f[1] != 1 || f[2] != 2 {
		t.Fatalf("frequencies %v", f)
	}
}

func TestMaxID(t *testing.T) {
	c := NewCollection([]Set{New(5, 9), New(2)})
	if c.MaxID() != 9 {
		t.Fatalf("MaxID=%d", c.MaxID())
	}
	if NewCollection(nil).MaxID() != 0 {
		t.Fatal("empty MaxID should be 0")
	}
}

func TestCollectionReadWriteRoundTrip(t *testing.T) {
	c := NewCollection([]Set{New(3, 1), New(1000000), New(7, 8, 9)})
	var buf bytes.Buffer
	if err := c.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCollection(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != c.Len() {
		t.Fatalf("round trip lost sets: %d vs %d", got.Len(), c.Len())
	}
	for i := range c.Sets {
		if !got.Sets[i].Equal(c.Sets[i]) {
			t.Fatalf("set %d mismatch: %v vs %v", i, got.Sets[i], c.Sets[i])
		}
	}
}

func TestReadCollectionSkipsCommentsAndBlanks(t *testing.T) {
	in := "# header\n\n1 2 3\n  \n4\n"
	c, err := ReadCollection(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != 2 {
		t.Fatalf("got %d sets", c.Len())
	}
}

func TestReadCollectionRejectsGarbage(t *testing.T) {
	if _, err := ReadCollection(strings.NewReader("1 x 3\n")); err == nil {
		t.Fatal("expected parse error")
	}
}

func TestAppend(t *testing.T) {
	c := NewCollection(nil)
	if pos := c.Append(New(1)); pos != 0 {
		t.Fatalf("Append pos %d", pos)
	}
	if pos := c.Append(New(2)); pos != 1 {
		t.Fatalf("Append pos %d", pos)
	}
}

// TestAppendKeyMatchesKey pins AppendKey to Key byte for byte, and both to
// encoding/binary's uvarint encoding of the ids, on random sets whose ids
// span every varint length, 2^28 and above (five bytes) included. AppendKey
// must extend dst, not overwrite it.
func TestAppendKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	prefix := []byte("dst")
	cases := []Set{New(), New(1<<28-1, 1<<28, 0xFFFFFFFF)}
	for i := 0; i < 500; i++ {
		ids := make([]uint32, 1+r.Intn(8))
		for j := range ids {
			ids[j] = r.Uint32() >> r.Intn(32)
		}
		cases = append(cases, New(ids...))
	}
	fiveByte := 0
	for _, s := range cases {
		var want []byte
		for _, v := range s {
			want = binary.AppendUvarint(want, uint64(v))
			if v >= 1<<28 {
				fiveByte++
			}
		}
		got := s.AppendKey(append([]byte(nil), prefix...))
		if !bytes.Equal(got[:len(prefix)], prefix) || !bytes.Equal(got[len(prefix):], want) {
			t.Fatalf("AppendKey(%q, %v) = %x, want %q + %x", prefix, s, got, prefix, want)
		}
		if k := s.Key(); k != string(want) {
			t.Fatalf("Key(%v) = %x, want %x", s, k, want)
		}
	}
	if fiveByte < 50 {
		t.Fatalf("only %d ids of 2^28 or above; the five-byte varint is barely exercised", fiveByte)
	}
}

// Property: Key is injective on random small sets.
func TestKeyInjective(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Set {
			n := 1 + r.Intn(5)
			ids := make([]uint32, n)
			for i := range ids {
				ids[i] = uint32(r.Intn(1000))
			}
			return New(ids...)
		}
		a, b := mk(), mk()
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
