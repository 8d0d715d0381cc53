// Package sets provides the set representation shared by every structure in
// this repository: canonical sorted element-id sets, a string↔id dictionary,
// permutation-invariant hashing, subset enumeration, and the collection type
// from the paper's problem statement (§1.1) — an ordered list S = [X₁…X_N]
// of sets queried by subset containment.
package sets

import (
	"fmt"
	"slices"
	"sort"
)

// Set is a set of element ids, stored sorted and duplicate-free. The sorted
// canonical form is what makes hashing and keys permutation invariant.
type Set []uint32

// New builds a canonical Set from ids in any order, dropping duplicates.
// ids is not modified.
func New(ids ...uint32) Set {
	s := make([]uint32, len(ids))
	copy(s, ids)
	return Canonicalize(s)
}

// Canonicalize sorts ids in place, drops duplicates and returns the result
// as a Set sharing ids' backing array. The Set's capacity equals its
// length, so appending to it never writes into the rest of that array.
func Canonicalize(ids []uint32) Set {
	slices.Sort(ids)
	ids = slices.Compact(ids)
	return Set(ids[:len(ids):len(ids)])
}

// FromSorted wraps ids, which the caller guarantees to already be sorted
// and unique; it panics otherwise. Use for hot paths that build sets
// incrementally.
func FromSorted(ids []uint32) Set {
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			panic(fmt.Sprintf("sets: FromSorted input not strictly increasing at %d: %v", i, ids))
		}
	}
	return Set(ids)
}

// Len returns the number of elements.
func (s Set) Len() int { return len(s) }

// Equal reports whether s and o contain exactly the same elements.
func (s Set) Equal(o Set) bool {
	if len(s) != len(o) {
		return false
	}
	for i, v := range s {
		if v != o[i] {
			return false
		}
	}
	return true
}

// ContainsAll reports whether q ⊆ s, by a linear merge over the two sorted
// slices.
func (s Set) ContainsAll(q Set) bool {
	if len(q) > len(s) {
		return false
	}
	i := 0
	for _, want := range q {
		for i < len(s) && s[i] < want {
			i++
		}
		if i >= len(s) || s[i] != want {
			return false
		}
		i++
	}
	return true
}

// Contains reports whether the single element id is in s (binary search).
func (s Set) Contains(id uint32) bool {
	i := sort.Search(len(s), func(i int) bool { return s[i] >= id })
	return i < len(s) && s[i] == id
}

// Clone returns a copy of s.
func (s Set) Clone() Set {
	c := make(Set, len(s))
	copy(c, s)
	return c
}

// Key returns a canonical byte-string key for s, usable as a map key. Two
// sets are equal iff their keys are equal.
func (s Set) Key() string {
	return string(s.AppendKey(make([]byte, 0, 5*len(s))))
}

// AppendKey appends s's Key bytes to dst and returns the extended slice.
// Map reads written as m[string(s.AppendKey(buf[:0]))] do not allocate:
// Go converts the bytes to a string key without copying them.
func (s Set) AppendKey(dst []byte) []byte {
	for _, v := range s {
		// Varint encoding keeps keys short for the small ids that dominate
		// Zipf-distributed data.
		for v >= 0x80 {
			dst = append(dst, byte(v)|0x80)
			v >>= 7
		}
		dst = append(dst, byte(v))
	}
	return dst
}

// FromKey decodes a key produced by Key back into the canonical Set. It
// rejects malformed input (truncated varints, overlong encodings, or id
// sequences that are not strictly increasing), so keys recovered from
// persisted containers cannot smuggle in non-canonical sets.
func FromKey(key string) (Set, error) {
	var s Set
	for i := 0; i < len(key); {
		var v uint32
		shift := 0
		for {
			if i >= len(key) {
				return nil, fmt.Errorf("sets: truncated varint in key at byte %d", i)
			}
			b := key[i]
			i++
			if shift == 28 && b&0x7F > 0x0F {
				return nil, fmt.Errorf("sets: varint overflows uint32 in key")
			}
			v |= uint32(b&0x7F) << shift
			if b < 0x80 {
				break
			}
			shift += 7
			if shift > 28 {
				return nil, fmt.Errorf("sets: varint overflows uint32 in key")
			}
		}
		if len(s) > 0 && v <= s[len(s)-1] {
			return nil, fmt.Errorf("sets: key ids not strictly increasing at %d", v)
		}
		s = append(s, v)
	}
	return s, nil
}

// Hash returns a 64-bit FNV-1a hash over the canonical (sorted) element
// sequence. Because the representation is sorted, the hash is permutation
// invariant — the property the paper requires of hashed set keys (§8.1.2).
func (s Set) Hash() uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range s {
		for shift := 0; shift < 32; shift += 8 {
			h ^= uint64(byte(v >> shift))
			h *= prime64
		}
	}
	return h
}

// Signature returns a 64-bit superimposed code for s: the OR over its ids
// of one bit each, picked by multiplicative (Fibonacci) hashing, which
// spreads the small, dense ids of a Zipf head over distinct bits. q ⊆ s
// implies Signature(q)&^Signature(s) == 0, and q = s implies equal
// signatures, so one word test rules out most non-supersets before an
// exact merge and never rules out a true one. Signature(∅) is 0, which
// every signature covers.
func Signature(s Set) uint64 {
	var sig uint64
	for _, id := range s {
		sig |= 1 << ((uint64(id) * 0x9E3779B97F4A7C15) >> 58)
	}
	return sig
}

// String renders the set for diagnostics.
func (s Set) String() string {
	return fmt.Sprintf("%v", []uint32(s))
}

// Subsets enumerates every non-empty subset of s with at most maxSize
// elements, invoking fn with a freshly allocated canonical Set for each.
// maxSize ≤ 0 means no size limit. The enumeration order is deterministic.
func Subsets(s Set, maxSize int, fn func(Set)) {
	if maxSize <= 0 || maxSize > len(s) {
		maxSize = len(s)
	}
	buf := make([]uint32, 0, maxSize)
	var rec func(start int)
	rec = func(start int) {
		for i := start; i < len(s); i++ {
			buf = append(buf, s[i])
			sub := make(Set, len(buf))
			copy(sub, buf)
			fn(sub)
			if len(buf) < maxSize {
				rec(i + 1)
			}
			buf = buf[:len(buf)-1]
		}
	}
	rec(0)
}

// CountSubsets returns the number of non-empty subsets of a set of size n
// with at most maxSize elements: Σ_{k=1..maxSize} C(n,k).
func CountSubsets(n, maxSize int) int {
	if maxSize <= 0 || maxSize > n {
		maxSize = n
	}
	total := 0
	c := 1
	for k := 1; k <= maxSize; k++ {
		c = c * (n - k + 1) / k
		total += c
	}
	return total
}
