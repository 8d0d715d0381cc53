package sets

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadCollection ensures the parser never panics and that successful
// parses round-trip through Write.
func FuzzReadCollection(f *testing.F) {
	f.Add("1 2 3\n4 5\n")
	f.Add("# comment\n\n7\n")
	f.Add("4294967295\n")
	f.Add("not numbers")
	f.Add("1 1 1\n")
	f.Fuzz(func(t *testing.T, input string) {
		c, err := ReadCollection(strings.NewReader(input))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := c.Write(&buf); err != nil {
			t.Fatalf("Write of parsed collection failed: %v", err)
		}
		again, err := ReadCollection(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if again.Len() != c.Len() {
			t.Fatalf("round trip changed set count: %d vs %d", again.Len(), c.Len())
		}
		for i := range c.Sets {
			if !again.Sets[i].Equal(c.Sets[i]) {
				t.Fatalf("round trip changed set %d", i)
			}
		}
	})
}

// FuzzSetCanonical checks the invariants of New and Canonicalize under
// arbitrary id lists.
func FuzzSetCanonical(f *testing.F) {
	f.Add([]byte{1, 2, 3, 2, 1})
	f.Add([]byte{})
	f.Add([]byte{255, 0, 128})
	f.Fuzz(func(t *testing.T, raw []byte) {
		ids := make([]uint32, len(raw))
		for i, b := range raw {
			ids[i] = uint32(b) * 16777 // spread over a wide range
		}
		s := New(ids...)
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				t.Fatalf("not strictly sorted: %v", s)
			}
		}
		// Canonicalize on a copy must agree with New, and its result must be
		// capped at its length so appends cannot spill into the caller's
		// array.
		c := Canonicalize(append([]uint32(nil), ids...))
		if !c.Equal(s) {
			t.Fatalf("Canonicalize = %v, New = %v", c, s)
		}
		if cap(c) != len(c) || cap(s) != len(s) {
			t.Fatalf("cap != len: Canonicalize %d/%d, New %d/%d", cap(c), len(c), cap(s), len(s))
		}
		// Key and Hash must be stable under re-canonicalization.
		again := New(append([]uint32(nil), s...)...)
		if s.Key() != again.Key() || s.Hash() != again.Hash() {
			t.Fatal("canonical form not a fixed point")
		}
		// Signature must not depend on order or duplicates, and must cover
		// the signature of every subset: the scans that skip a set when its
		// signature misses a query bit rely on it.
		sig := Signature(s)
		if Signature(again) != sig || Signature(Set(ids)) != sig {
			t.Fatalf("Signature not stable under re-canonicalization: %v", s)
		}
		for k := range s {
			if Signature(s[:k])&^sig != 0 || Signature(s[k:k+1])&^sig != 0 {
				t.Fatalf("Signature(%v) does not cover its subsets at %d", s, k)
			}
		}
		// Every input id must be present.
		for _, id := range ids {
			if !s.Contains(id) {
				t.Fatalf("lost id %d", id)
			}
		}
	})
}
