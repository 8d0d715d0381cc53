// Package bptree implements an in-memory B+ tree keyed by uint64 with
// duplicate-key support. It is the traditional competitor for the set-index
// task (§8.1.2: "a B+ Tree, where as a key we use a hash function over the
// set, also allowing duplicate keys") and the auxiliary outlier structure of
// the hybrid index (§6).
package bptree

import (
	"fmt"
	"sort"
)

// DefaultOrder is the branching factor used by the paper's baseline
// ("branching factor 100", §8.1.2).
const DefaultOrder = 100

// Tree is a B+ tree multimap from uint64 keys to uint32 values.
type Tree struct {
	root  node
	order int // max children of an internal node
	size  int // number of (key,value) pairs
}

type node interface {
	// insert returns a split: the new right sibling and its separator key,
	// or nil if no split happened.
	insert(key uint64, val uint32, order int) (node, uint64)
	find(key uint64) ([]uint32, bool)
}

type leaf struct {
	keys []uint64
	vals [][]uint32 // vals[i] holds all values inserted under keys[i]
	next *leaf
}

type internal struct {
	keys     []uint64 // separator keys; len(children) == len(keys)+1
	children []node
}

// New returns an empty tree with the given order (max children per internal
// node); order must be at least 3.
func New(order int) *Tree {
	if order < 3 {
		panic(fmt.Sprintf("bptree: order must be ≥ 3, got %d", order))
	}
	return &Tree{root: &leaf{}, order: order}
}

// Len returns the number of stored (key, value) pairs.
func (t *Tree) Len() int { return t.size }

// Insert adds a (key, value) pair; duplicate keys accumulate values in
// insertion order.
func (t *Tree) Insert(key uint64, val uint32) {
	right, sep := t.root.insert(key, val, t.order)
	if right != nil {
		t.root = &internal{keys: []uint64{sep}, children: []node{t.root, right}}
	}
	t.size++
}

// Get returns all values stored under key in insertion order.
func (t *Tree) Get(key uint64) ([]uint32, bool) { return t.root.find(key) }

// Contains reports whether any value is stored under key.
func (t *Tree) Contains(key uint64) bool {
	_, ok := t.Get(key)
	return ok
}

// Ascend walks all (key, value) pairs in ascending key order; values under
// one key are visited in insertion order. Return false from fn to stop.
func (t *Tree) Ascend(fn func(key uint64, val uint32) bool) {
	l := t.firstLeaf()
	for l != nil {
		for i, k := range l.keys {
			for _, v := range l.vals[i] {
				if !fn(k, v) {
					return
				}
			}
		}
		l = l.next
	}
}

func (t *Tree) firstLeaf() *leaf {
	n := t.root
	for {
		switch v := n.(type) {
		case *leaf:
			return v
		case *internal:
			n = v.children[0]
		}
	}
}

// SizeBytes estimates the in-memory footprint: 8 bytes per key, 4 per value,
// 8 per child pointer, plus fixed per-node and per-slice overheads. This is
// the quantity reported against model sizes in Tables 3, 7, and 10.
func (t *Tree) SizeBytes() int {
	total := 0
	var walk func(n node)
	walk = func(n node) {
		const nodeOverhead = 48 // slice headers + next pointer
		switch v := n.(type) {
		case *leaf:
			total += nodeOverhead + 8*len(v.keys)
			for _, vals := range v.vals {
				total += 24 + 4*len(vals)
			}
		case *internal:
			total += nodeOverhead + 8*len(v.keys) + 8*len(v.children)
			for _, c := range v.children {
				walk(c)
			}
		}
	}
	walk(t.root)
	return total
}

func (l *leaf) find(key uint64) ([]uint32, bool) {
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		return l.vals[i], true
	}
	return nil, false
}

func (l *leaf) insert(key uint64, val uint32, order int) (node, uint64) {
	i := sort.Search(len(l.keys), func(i int) bool { return l.keys[i] >= key })
	if i < len(l.keys) && l.keys[i] == key {
		l.vals[i] = append(l.vals[i], val)
		return nil, 0
	}
	l.keys = append(l.keys, 0)
	copy(l.keys[i+1:], l.keys[i:])
	l.keys[i] = key
	l.vals = append(l.vals, nil)
	copy(l.vals[i+1:], l.vals[i:])
	l.vals[i] = []uint32{val}

	if len(l.keys) < order {
		return nil, 0
	}
	// Split: right sibling takes the upper half; the separator is the first
	// key of the right leaf (B+ tree leaves keep all keys).
	mid := len(l.keys) / 2
	right := &leaf{
		keys: append([]uint64(nil), l.keys[mid:]...),
		vals: append([][]uint32(nil), l.vals[mid:]...),
		next: l.next,
	}
	l.keys = l.keys[:mid:mid]
	l.vals = l.vals[:mid:mid]
	l.next = right
	return right, right.keys[0]
}

func (in *internal) find(key uint64) ([]uint32, bool) {
	i := sort.Search(len(in.keys), func(i int) bool { return in.keys[i] > key })
	return in.children[i].find(key)
}

func (in *internal) insert(key uint64, val uint32, order int) (node, uint64) {
	i := sort.Search(len(in.keys), func(i int) bool { return in.keys[i] > key })
	child, sep := in.children[i].insert(key, val, order)
	if child == nil {
		return nil, 0
	}
	in.keys = append(in.keys, 0)
	copy(in.keys[i+1:], in.keys[i:])
	in.keys[i] = sep
	in.children = append(in.children, nil)
	copy(in.children[i+2:], in.children[i+1:])
	in.children[i+1] = child

	if len(in.children) <= order {
		return nil, 0
	}
	// Split internal node: middle key moves up.
	mid := len(in.keys) / 2
	upKey := in.keys[mid]
	right := &internal{
		keys:     append([]uint64(nil), in.keys[mid+1:]...),
		children: append([]node(nil), in.children[mid+1:]...),
	}
	in.keys = in.keys[:mid:mid]
	in.children = in.children[: mid+1 : mid+1]
	return right, upKey
}
