// Package dataflow provides a generic forward worklist solver over the
// CFGs built by internal/lint/cfg (facts flow entry→exit, e.g. "which
// values are tainted here"), and a bounded acyclic path enumerator for
// analyzers that need whole paths rather than per-block joins.
//
// Lattices must be finite-height for termination: Join must be monotone
// and states must stop changing after finitely many joins. Init() is the
// identity of Join (⊥ for may/union analyses, ⊤ for must/intersection
// analyses).
package dataflow

import "setlearn/internal/lint/cfg"

// Lattice describes the state domain of an analysis.
type Lattice[S any] interface {
	// Init returns the identity of Join: joining Init() with x yields x.
	Init() S
	Join(a, b S) S
	Equal(a, b S) bool
}

// Result holds the fixed-point states at block boundaries: In[b] is the
// state on entry to b and Out[b] on exit.
type Result[S any] struct {
	In  map[*cfg.Block]S
	Out map[*cfg.Block]S
}

// Forward solves a forward dataflow problem. entry is the state at the
// function entry; transfer maps a block's in-state to its out-state by
// interpreting the block's nodes in source order.
func Forward[S any](g *cfg.Graph, lat Lattice[S], entry S, transfer func(b *cfg.Block, in S) S) *Result[S] {
	res := &Result[S]{
		In:  make(map[*cfg.Block]S, len(g.Blocks)),
		Out: make(map[*cfg.Block]S, len(g.Blocks)),
	}
	for _, b := range g.Blocks {
		res.In[b] = lat.Init()
		res.Out[b] = lat.Init()
	}
	work := newWorklist(g.Blocks)
	for {
		b, ok := work.pop()
		if !ok {
			break
		}
		in := lat.Init()
		if b == g.Entry {
			in = entry
		}
		for _, p := range b.Preds {
			in = lat.Join(in, res.Out[p])
		}
		out := transfer(b, in)
		res.In[b] = in
		if !lat.Equal(out, res.Out[b]) {
			res.Out[b] = out
			for _, s := range b.Succs {
				work.push(s)
			}
		}
	}
	return res
}

// Paths enumerates acyclic block paths from from to to, invoking visit
// with each complete path (the slice is the visitor's to keep). visit
// returning false stops the enumeration early. Paths returns false only
// when the enumeration hit limit before exhausting all paths, so callers
// can refuse to report on functions too branchy to enumerate honestly.
func Paths(g *cfg.Graph, from, to *cfg.Block, limit int, visit func(path []*cfg.Block) bool) bool {
	var path []*cfg.Block
	on := make(map[*cfg.Block]bool, len(g.Blocks))
	count := 0
	complete := true
	var dfs func(b *cfg.Block) bool
	dfs = func(b *cfg.Block) bool {
		if count >= limit {
			complete = false
			return false
		}
		path = append(path, b)
		on[b] = true
		defer func() {
			path = path[:len(path)-1]
			on[b] = false
		}()
		if b == to {
			count++
			return visit(append([]*cfg.Block(nil), path...))
		}
		for _, s := range b.Succs {
			if on[s] {
				continue
			}
			if !dfs(s) {
				return false
			}
		}
		return true
	}
	dfs(from)
	return complete
}

// Limit is the default Paths budget for a graph: quadratic in block
// count, clamped to [64, 4096].
func Limit(g *cfg.Graph) int {
	n := len(g.Blocks) * len(g.Blocks)
	if n < 64 {
		return 64
	}
	if n > 4096 {
		return 4096
	}
	return n
}

// worklist is a FIFO of blocks with membership dedup.
type worklist struct {
	queue []*cfg.Block
	in    map[*cfg.Block]bool
}

func newWorklist(blocks []*cfg.Block) *worklist {
	w := &worklist{in: make(map[*cfg.Block]bool, len(blocks))}
	for _, b := range blocks {
		w.push(b)
	}
	return w
}

func (w *worklist) push(b *cfg.Block) {
	if w.in[b] {
		return
	}
	w.in[b] = true
	w.queue = append(w.queue, b)
}

func (w *worklist) pop() (*cfg.Block, bool) {
	if len(w.queue) == 0 {
		return nil, false
	}
	b := w.queue[0]
	w.queue = w.queue[1:]
	w.in[b] = false
	return b, true
}
