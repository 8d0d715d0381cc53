package pubfreeze

import "sync/atomic"

type state struct {
	n     int
	elems []uint64
}

type holder struct {
	cur atomic.Pointer[state]
}

// Direct field write after Store.
func direct(h *holder) {
	st := &state{n: 1}
	h.cur.Store(st)
	st.n = 2 // want `mutates .st. after it was published`
}

// Copy-on-write is the sanctioned idiom: nothing mutates after the Store.
func cow(h *holder) {
	old := h.cur.Load()
	next := &state{n: old.n + 1}
	next.elems = append(next.elems, 7)
	h.cur.Store(next)
}

// Publication on one branch poisons the join: the write after the if runs
// on the published path too.
func branch(h *holder, ok bool) {
	st := &state{}
	if ok {
		h.cur.Store(st)
	}
	st.n = 3 // want `mutates .st. after it was published`
}

// Re-binding the variable each iteration kills the published fact: the
// fresh value mutated before its own Store is a new object.
func rebind(h *holder) {
	for i := 0; i < 3; i++ {
		st := &state{}
		st.n = i
		h.cur.Store(st)
	}
}

// Helper mutation one call after publication (interprocedural).
func helperMut(h *holder) {
	st := &state{}
	h.cur.Store(st)
	scrub(st) // want `call to scrub reaches`
}

func scrub(st *state) { st.n = 0 }

// Two call levels down.
func helperDeep(h *holder) {
	st := &state{}
	h.cur.Store(st)
	relay(st) // want `call to relay reaches`
}

func relay(st *state) { scrub(st) }

// Read-only helpers after publication are fine.
func readOnly(h *holder) int {
	st := &state{}
	h.cur.Store(st)
	return peek(st)
}

func peek(st *state) int { return st.n }

// IncDec is a write too.
func incAfter(h *holder) {
	st := &state{}
	h.cur.Store(st)
	st.n++ // want `mutates .st. after it was published`
}

// Element write through a published slice-holding struct.
func elemWrite(h *holder) {
	st := &state{elems: make([]uint64, 4)}
	h.cur.Store(st)
	st.elems[0] = 1 // want `mutates .st. after it was published`
}

// Swap publishes its argument exactly like Store.
func swapMut(h *holder) {
	st := &state{}
	old := h.cur.Swap(st)
	_ = old
	st.n = 1 // want `mutates .st. after it was published`
}

// CompareAndSwap publishes the new value (second argument).
func casMut(h *holder, old *state) {
	st := &state{}
	if h.cur.CompareAndSwap(old, st) {
		st.n = 1 // want `mutates .st. after it was published`
	}
}

type words struct {
	w atomic.Pointer[[]uint64]
}

// Append through the published slice variable may write the shared
// backing array in place.
func appendPub(h *words) {
	next := []uint64{1}
	h.w.Store(&next)
	next = append(next, 2) // want `writes the published backing store`
}

// The copy-on-write slice idiom stays clean: build, fill, Store last.
func appendCOW(h *words, add []uint64) {
	cur := h.w.Load()
	next := append([]uint64(nil), *cur...)
	next = append(next, add...)
	h.w.Store(&next)
}

type box struct {
	v atomic.Value
}

// atomic.Value publications are tracked the same way.
func valueMut(h *box) {
	m := map[int]int{}
	h.v.Store(m)
	m[1] = 2 // want `mutates .m. after it was published`
}

func valueDelete(h *box) {
	m := map[int]int{1: 1}
	h.v.Store(m)
	delete(m, 1) // want `writes the published backing store`
}

// Mutating through a Loaded snapshot is the reader's business — the
// insert path's documented delta-append idiom — and is not this
// analyzer's finding.
func loadSide(h *words) {
	cur := h.w.Load()
	(*cur)[0] = 9
}

// Deferred mutations run at exit, after the publish on this path.
func deferMut(h *holder) {
	st := &state{}
	defer scrub(st) // want `call to scrub reaches`
	h.cur.Store(st)
	_ = st.n
}

// A //lint:frozen type must have no receiver-mutating methods at all.
//
//lint:frozen
type frozenCurve struct {
	xs []float64
}

func (c *frozenCurve) At(i int) float64 { return c.xs[i] }

func (c *frozenCurve) Set(i int, v float64) { // want `frozen type frozenCurve mutates its receiver`
	c.xs[i] = v
}

func (c *frozenCurve) Wipe() { // want `frozen type frozenCurve mutates its receiver`
	blank(c)
}

func blank(c *frozenCurve) { c.xs = nil }

// Value receivers mutate a copy; that is legal on a frozen type.
func (c frozenCurve) Shifted() frozenCurve {
	c.xs = nil
	return c
}

// Generic containers publish per-instantiation states; a write after the
// Store inside a generic method is caught like any other.
type genState[M comparable] struct {
	m M
	n int
}

type genHolder[M comparable] struct {
	cur atomic.Pointer[genState[M]]
}

func (h *genHolder[M]) swapIn(m M) {
	st := &genState[M]{m: m}
	h.cur.Store(st)
	st.n = 1 // want `mutates .st. after it was published`
}

// Copy-on-write stays clean in generic code too.
func (h *genHolder[M]) bump() {
	next := *h.cur.Load()
	next.n++
	h.cur.Store(&next)
}
