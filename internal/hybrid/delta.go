package hybrid

import (
	"math"
	"sync"
	"time"

	"setlearn/internal/sets"
)

// Delta is the exact write-side companion of a learned structure: an
// append-only list of sets inserted after the model was trained. It is the
// §7.2 auxiliary idea applied to whole sets instead of evicted subsets —
// the learned model keeps answering for the trained bulk while every query
// is composed with an exact pass over the (small) delta, so answers are
// correct the instant an insert returns and stay correct until a background
// retrain absorbs the entries into a fresh model.
//
// Layout. Entries live in four parallel append-only arrays instead of one
// separately allocated set per entry: sig[i] is entry i's 64-bit signature
// (sets.Signature), pos[i] its global position, and its ids sit back to
// back in one element arena, elems[off[i]:off[i+1]].
// Add copies the set into the arena, so callers may reuse theirs.
//
// Reads. A read computes sig(q) once and runs the exact ContainsAll merge
// only on entries whose signature covers it (sig[i]&sig(q) == sig(q));
// equality lookups further require sig[i] == sig(q) before Equal. The
// filter has no false negatives (see sets.Signature), so every true hit
// survives it and counts, first positions and membership stay exact. A
// read on an empty delta returns before hashing. Cost is still
// O(len(delta)) word tests, but the merge runs only on entries sharing
// every signature bit of q.
//
// Reads take the read lock only, so concurrent queries never serialize on
// each other; Add is the only writer. Entries are never removed or
// overwritten in a live Delta — a retrain builds a *new* Delta holding only
// the unabsorbed tail and swaps it in together with the new model, which is
// what lets a query that loaded the old (model, delta) pair keep a complete,
// consistent view, and what keeps Snapshot sets (views into the arena)
// stable after later Adds.
type Delta struct {
	mu    sync.RWMutex
	sig   []uint64  // per entry: sets.Signature of its ids
	pos   []int     // per entry: global position
	off   []uint32  // len(pos)+1 once non-empty: entry i is elems[off[i]:off[i+1]]
	elems []uint32  // every entry's ids, back to back
	first time.Time // arrival of the oldest entry, for staleness scoring
	maxID uint32
}

// DeltaEntry is one inserted set with its assigned global position.
// Structures without position semantics (estimator, filter) carry a
// synthetic monotone position so persistence and ordering stay uniform.
type DeltaEntry struct {
	Pos int
	Set sets.Set
}

// NewDelta returns an empty delta.
func NewDelta() *Delta { return &Delta{} }

// NewDeltaFrom returns a delta holding copies of the given entries (used by
// retrain to carry the unabsorbed tail into the swapped-in state, and by
// loaders).
func NewDeltaFrom(entries []DeltaEntry) *Delta {
	d := &Delta{}
	for _, en := range entries {
		d.appendEntry(en.Set, en.Pos)
	}
	if len(entries) > 0 {
		d.first = time.Now()
	}
	return d
}

// appendEntry copies s into the arena as a new entry; the caller holds the
// write lock (or owns d exclusively).
func (d *Delta) appendEntry(s sets.Set, pos int) {
	if len(d.elems)+len(s) > math.MaxUint32 {
		panic("hybrid: delta element arena exceeds 2^32 ids")
	}
	if len(d.off) == 0 {
		d.off = append(d.off, 0)
	}
	d.sig = append(d.sig, sets.Signature(s))
	d.pos = append(d.pos, pos)
	d.elems = append(d.elems, s...)
	d.off = append(d.off, uint32(len(d.elems)))
	if n := len(s); n > 0 && s[n-1] > d.maxID {
		d.maxID = s[n-1]
	}
}

// entry returns entry i's ids as a cap-limited view into the arena, so an
// append to it reallocates instead of overwriting entry i+1.
func (d *Delta) entry(i int) sets.Set {
	lo, hi := d.off[i], d.off[i+1]
	return sets.Set(d.elems[lo:hi:hi])
}

// Add appends a copy of one inserted set.
func (d *Delta) Add(s sets.Set, pos int) {
	d.mu.Lock()
	if len(d.pos) == 0 {
		d.first = time.Now()
	}
	d.appendEntry(s, pos)
	d.mu.Unlock()
}

// Len returns the number of pending entries.
func (d *Delta) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.pos)
}

// Age returns how long the oldest pending entry has been waiting, or 0 for
// an empty delta.
func (d *Delta) Age() time.Duration {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.pos) == 0 {
		return 0
	}
	return time.Since(d.first)
}

// MaxID returns the largest element id across pending entries (0 if empty).
func (d *Delta) MaxID() uint32 {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.maxID
}

// Snapshot returns the current entries. Each Set is a cap-limited view into
// the arena; entries are never overwritten, so the views stay valid and
// unchanged across later Adds, including ones that reallocate.
func (d *Delta) Snapshot() []DeltaEntry {
	return d.Tail(0)
}

// Tail returns the entries from index cut onward — the inserts that landed
// while a retrain was building over the first cut entries — as views into
// the arena like Snapshot's.
func (d *Delta) Tail(cut int) []DeltaEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if cut >= len(d.pos) {
		return nil
	}
	out := make([]DeltaEntry, len(d.pos)-cut)
	for j := range out {
		out[j] = DeltaEntry{Pos: d.pos[cut+j], Set: d.entry(cut + j)}
	}
	return out
}

// FirstPos returns the smallest position among entries matching q — superset
// entries for subset search, exactly-equal entries when equal is set — or -1.
// Entries are exact, so this is the index task's aux fan-in contribution.
func (d *Delta) FirstPos(q sets.Set, equal bool) int {
	if len(q) == 0 {
		return -1
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.pos) == 0 {
		return -1
	}
	qs := sets.Signature(q)
	best := -1
	for i, s := range d.sig {
		if s&qs != qs || (equal && s != qs) {
			continue
		}
		if p := d.pos[i]; best < 0 || p < best {
			var hit bool
			if equal {
				hit = d.entry(i).Equal(q)
			} else {
				hit = d.entry(i).ContainsAll(q)
			}
			if hit {
				best = p
			}
		}
	}
	return best
}

// Count returns the number of entries containing q — the exact additive
// contribution of pending inserts to a cardinality estimate.
func (d *Delta) Count(q sets.Set) float64 {
	if len(q) == 0 {
		return 0
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.pos) == 0 {
		return 0
	}
	qs := sets.Signature(q)
	n := 0
	for i, s := range d.sig {
		if s&qs == qs && d.entry(i).ContainsAll(q) {
			n++
		}
	}
	return float64(n)
}

// Contains reports whether q is a subset of some pending entry — the
// membership task's exact OR contribution.
func (d *Delta) Contains(q sets.Set) bool {
	if len(q) == 0 {
		return false // defer to the structure's empty-set convention
	}
	d.mu.RLock()
	defer d.mu.RUnlock()
	if len(d.pos) == 0 {
		return false
	}
	qs := sets.Signature(q)
	for i, s := range d.sig {
		if s&qs == qs && d.entry(i).ContainsAll(q) {
			return true
		}
	}
	return false
}

// SizeBytes returns the delta footprint: the four arrays at their lengths,
// 8 (sig) + 8 (pos) + 4 (off) bytes per entry plus 4 per id, and the
// leading zero offset.
func (d *Delta) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return 8*len(d.sig) + 8*len(d.pos) + 4*len(d.off) + 4*len(d.elems)
}
