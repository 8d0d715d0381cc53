package hybrid

import (
	"math"
	"math/bits"
	"slices"
	"sync"
	"time"
	"unsafe"

	"setlearn/internal/sets"
)

// Delta is the exact write-side companion of a learned structure: an
// append-only list of sets inserted after the model was trained. It is the
// §7.2 auxiliary idea applied to whole sets instead of evicted subsets —
// the learned model keeps answering for the trained bulk while every query
// is composed with an exact read of the (small) delta, so answers are
// correct the instant an insert returns and stay correct until a background
// retrain absorbs the entries into a fresh model.
//
// Layout. The delta is an inverted index over entry numbers (0, 1, … in
// Add order), like the GIN index of the paper's Table 12. Each entry keeps
// its global position and its id count; each distinct id keeps a posting of
// the ascending entries that hold it, as a sorted array or as a bitmap over
// entry numbers, whichever is smaller when the id is added (posting.add).
// Add takes a canonical set (sets.New) and keeps no reference to it.
//
// Reads. A read on an empty delta returns before any map lookup. Otherwise
// it looks up q's postings and leads with the one of fewest entries (an
// array before a bitmap of the same length, since a bitmap answers
// membership in O(1)): every lead entry that the other postings hold is a
// match. When every posting is a bitmap, the read ANDs them word by word
// instead. A one-id Count is that posting's length.
//
// Late entries. Positions are handed out before the delta lock is taken
// (core's InsertSet), so racing inserts append them slightly out of order.
// An entry whose position is below an earlier entry's is late and is listed
// in late. Every other entry's position is at or above all earlier ones,
// so FirstPos stops at the first match and then checks only the late
// entries after it.
//
// Reads take the read lock only, so concurrent queries never serialize on
// each other; Add is the only writer. Entries are never removed or
// overwritten in a live Delta — a retrain builds a *new* Delta holding only
// the unabsorbed tail and swaps it in together with the new model, which is
// what lets a query that loaded the old (model, delta) pair keep a complete,
// consistent view. Snapshot and Tail rebuild the entries' sets from the
// postings, so what they return is the caller's own.
type Delta struct {
	mu    sync.RWMutex
	pos   []int             // per entry: global position
	size  []uint32          // per entry: number of ids
	late  []uint32          // ascending entries whose position is below an earlier entry's
	top   int               // largest position so far
	ids   map[uint32]uint32 // id -> its posting's index in post
	post  []posting
	first time.Time // arrival of the oldest entry, for staleness scoring
}

// posting lists the entries that hold one id. As an array, ents holds their
// ascending numbers; as a bitmap, bit e%32 of ents[e/32] is set for each
// such entry e, and the words end at the last one's.
type posting struct {
	ents   []uint32
	n      uint32 // entries holding the id
	bitmap bool
}

// add records entry e, above every entry recorded so far, in whichever form
// is smaller afterwards: n array slots or e/32+1 bitmap words, the array on
// a tie.
func (p *posting) add(e uint32) {
	p.n++
	words := e/32 + 1
	switch toBitmap := words < p.n; {
	case toBitmap && p.bitmap:
		p.ents = append(p.ents, make([]uint32, int(words)-len(p.ents))...)
	case toBitmap:
		bm := make([]uint32, words)
		for _, x := range p.ents {
			bm[x/32] |= 1 << (x % 32)
		}
		p.ents, p.bitmap = bm, true
	case p.bitmap:
		arr := make([]uint32, 0, p.n)
		for w, x := range p.ents {
			for ; x != 0; x &= x - 1 {
				arr = append(arr, uint32(w)*32+uint32(bits.TrailingZeros32(x)))
			}
		}
		p.ents, p.bitmap = append(arr, e), false
		return
	default:
		p.ents = append(p.ents, e)
		return
	}
	p.ents[e/32] |= 1 << (e % 32)
}

// fewer reports whether p should lead a read over o.
func (p *posting) fewer(o *posting) bool {
	return p.n < o.n || (p.n == o.n && !p.bitmap && o.bitmap)
}

// cursor is one read's position in a posting.
type cursor struct {
	p  *posting
	at int // array form: ents[:at] are below every entry asked about so far
}

// has reports whether the posting holds entry e. Successive calls must ask
// about ascending entries: an array is searched from the cursor on,
// galloping so that a long posting behind a short lead costs a logarithm
// per probe and two of similar length cost a merge.
func (c *cursor) has(e uint32) bool {
	ents := c.p.ents
	if c.p.bitmap {
		w := int(e / 32)
		return w < len(ents) && ents[w]&(1<<(e%32)) != 0
	}
	ents = ents[c.at:]
	lo, step := 0, 1
	for lo+step < len(ents) && ents[lo+step] < e {
		lo += step
		step *= 2
	}
	i, ok := slices.BinarySearch(ents[lo:min(lo+step+1, len(ents))], e)
	c.at += lo + i
	return ok
}

// holdsAll reports whether every cursor's posting holds entry e.
func holdsAll(cs []cursor, e uint32) bool {
	for i := range cs {
		if !cs[i].has(e) {
			return false
		}
	}
	return true
}

// queryCursors is how many postings a read keeps on the stack; a query with
// more ids grows its cursors onto the heap.
const queryCursors = 8

// cursors appends to buf a cursor on each of q's postings, the lead first,
// or returns nil when some id of q is in no entry. The caller holds the
// read lock and has checked that q and the delta are non-empty.
func (d *Delta) cursors(q sets.Set, buf []cursor) []cursor {
	for _, id := range q {
		i, ok := d.ids[id]
		if !ok {
			return nil
		}
		buf = append(buf, cursor{p: &d.post[i]})
		if last := len(buf) - 1; buf[last].p.fewer(buf[0].p) {
			buf[0], buf[last] = buf[last], buf[0]
		}
	}
	return buf
}

// bitmapWords returns how many words an AND over cs's postings spans, or
// -1 when one of them is an array.
func bitmapWords(cs []cursor) int {
	n := math.MaxInt
	for _, c := range cs {
		if !c.p.bitmap {
			return -1
		}
		n = min(n, len(c.p.ents))
	}
	return n
}

// each calls yield with every entry that holds all of cs's ids, in
// ascending order, until yield returns false. It walks the lead, cs[0],
// and ANDs in whichever of the others are bitmaps before asking the rest.
func each(cs []cursor, yield func(e uint32) bool) {
	lead, rest := cs[0].p, cs[1:]
	if !lead.bitmap {
		for _, e := range lead.ents {
			if holdsAll(rest, e) && !yield(e) {
				return
			}
		}
		return
	}
	words := len(lead.ents)
	for _, c := range rest {
		if c.p.bitmap {
			words = min(words, len(c.p.ents))
		}
	}
	for w := 0; w < words; w++ {
		x := lead.ents[w]
		for _, c := range rest {
			if c.p.bitmap {
				x &= c.p.ents[w]
			}
		}
		for ; x != 0; x &= x - 1 {
			e := uint32(w)*32 + uint32(bits.TrailingZeros32(x))
			if holdsAll(rest, e) && !yield(e) {
				return
			}
		}
	}
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

// NewDeltaFrom returns a delta holding the given entries (used by retrain
// to carry the unabsorbed tail into the swapped-in state, and by loaders).
func NewDeltaFrom(entries []DeltaEntry) *Delta {
	d := &Delta{}
	if len(entries) == 0 {
		return d
	}
	d.pos = make([]int, 0, len(entries))
	d.size = make([]uint32, 0, len(entries))
	for _, en := range entries {
		d.appendEntry(en.Set, en.Pos)
	}
	d.first = time.Now()
	return d
}

// appendEntry records s as the next entry; the caller holds the write lock
// (or owns d exclusively).
func (d *Delta) appendEntry(s sets.Set, pos int) {
	e := len(d.pos)
	if uint64(e) == math.MaxUint32 {
		panic("hybrid: delta exceeds 2^32-1 entries")
	}
	if e > 0 && pos < d.top {
		d.late = append(d.late, uint32(e))
	} else {
		d.top = pos
	}
	d.pos = append(d.pos, pos)
	d.size = append(d.size, uint32(len(s)))
	if d.ids == nil {
		d.ids = make(map[uint32]uint32)
	}
	for _, id := range s {
		i, ok := d.ids[id]
		if !ok {
			i = uint32(len(d.post))
			d.ids[id] = i
			d.post = append(d.post, posting{})
		}
		d.post[i].add(uint32(e))
	}
}

// Add appends one inserted set, which must be canonical.
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

// Snapshot returns the current entries, as Tail(0) does.
func (d *Delta) Snapshot() []DeltaEntry {
	return d.Tail(0)
}

// Tail returns the entries from index cut onward — the inserts that landed
// while a retrain was building over the first cut entries. Each set is
// rebuilt in canonical order from the postings into one fresh array, as a
// cap-limited view, so appending to it never reaches the next entry's.
func (d *Delta) Tail(cut int) []DeltaEntry {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if cut >= len(d.pos) {
		return nil
	}
	out := make([]DeltaEntry, len(d.pos)-cut)
	total := 0
	for _, n := range d.size[cut:] {
		total += int(n)
	}
	ids := make([]uint32, total)
	for j := range out {
		n := int(d.size[cut+j])
		out[j] = DeltaEntry{Pos: d.pos[cut+j], Set: ids[:0:n]}
		ids = ids[n:]
	}
	keys := make([]uint32, 0, len(d.ids))
	for id := range d.ids {
		keys = append(keys, id)
	}
	slices.Sort(keys)
	for _, id := range keys {
		c := [1]cursor{{p: &d.post[d.ids[id]]}}
		each(c[:], func(e uint32) bool {
			if j := int(e) - cut; j >= 0 {
				out[j].Set = append(out[j].Set, id)
			}
			return true
		})
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
	var buf [queryCursors]cursor
	cs := d.cursors(q, buf[:0])
	if cs == nil {
		return -1
	}
	// A match of q's size holds exactly q's ids.
	want := uint32(len(q))
	first := -1
	each(cs, func(e uint32) bool {
		if equal && d.size[e] != want {
			return true
		}
		first = int(e)
		return false
	})
	if first < 0 {
		return -1
	}
	// A later match below the first match's position must be late: one
	// that is not sits at or above every earlier entry's position. The
	// cursors have only been asked about entries up to first, so they walk
	// on through the late entries after it.
	best := d.pos[first]
	i, _ := slices.BinarySearch(d.late, uint32(first)+1)
	for _, e := range d.late[i:] {
		if p := d.pos[e]; p < best && (!equal || d.size[e] == want) && holdsAll(cs, e) {
			best = p
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
	var buf [queryCursors]cursor
	cs := d.cursors(q, buf[:0])
	if cs == nil {
		return 0
	}
	if len(cs) == 1 {
		return float64(cs[0].p.n)
	}
	n := 0
	if words := bitmapWords(cs); words >= 0 {
		for w := 0; w < words; w++ {
			x := cs[0].p.ents[w]
			for _, c := range cs[1:] {
				x &= c.p.ents[w]
			}
			n += bits.OnesCount32(x)
		}
		return float64(n)
	}
	each(cs, func(uint32) bool {
		n++
		return true
	})
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
	var buf [queryCursors]cursor
	cs := d.cursors(q, buf[:0])
	if cs == nil {
		return false
	}
	hit := false
	each(cs, func(uint32) bool {
		hit = true
		return false
	})
	return hit
}

// postingBytes is a posting's header: its slice, count and form.
const postingBytes = int(unsafe.Sizeof(posting{}))

// SizeBytes returns the delta footprint, with every array at its length:
// per entry its position and id count (8 + 4 bytes), 4 bytes per late
// entry and per posting array slot or bitmap word, and per distinct id its
// map key and posting index (4 + 4), its posting header and
// mapEntryOverhead. An empty delta is 0 bytes.
func (d *Delta) SizeBytes() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	total := 8*len(d.pos) + 4*len(d.size) + 4*len(d.late) +
		len(d.ids)*(4+4+postingBytes+mapEntryOverhead)
	for i := range d.post {
		total += 4 * len(d.post[i].ents)
	}
	return total
}
