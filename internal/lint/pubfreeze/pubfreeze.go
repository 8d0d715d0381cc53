// Package pubfreeze statically enforces the publication contract behind
// the repo's hot-swap architecture: a value stored into an atomic.Pointer
// (or atomic.Value) is frozen at the Store — no path may mutate it
// afterwards, because readers pin the snapshot with a single Load and
// expect it to be immutable. The race detector catches violations only on
// exercised interleavings; this analyzer catches them on every CFG path,
// at lint time.
//
// The analysis runs a forward may-published dataflow per function: a call
// to Store/Swap/CompareAndSwap on a sync/atomic Pointer or Value marks the
// stored variable (Store(v) or Store(&v)) published from that point on.
// Re-binding the variable (v := ..., v = ...) kills the fact — the
// loop-reload idiom (build a fresh value each iteration, publish, loop)
// stays clean. After the publish point the analyzer flags field writes,
// element writes, IncDec, append/copy/delete through the variable, and —
// interprocedurally, via bottom-up "mutates-param" summaries over the
// summary store — helper calls that mutate the published value any number
// of call levels down. Each diagnostic carries the copy-on-write rewrite:
// build a fresh value, mutate the fresh one, then Store the fresh pointer.
//
// A type annotated //lint:frozen opts every method into the contract:
// any method (directly or through helpers) mutating its pointer receiver
// is a finding, whether or not a publish site is in view. The repo uses
// it for types whose only live instances sit behind an atomic.Pointer
// (fast-path option blocks).
//
// Soundness caveats (DESIGN.md §12): values that escape through Load are
// the reader's business and are not tracked (the insert path's documented
// delta-append through a Loaded snapshot stays legal); aliases created
// before the Store are not tracked through the alias; function literals
// are separate functions — a closure mutating a variable its enclosing
// function published is not connected to the publish site; defers are
// checked against the state at function exit; callees without reachable
// source (stdlib, other modules) are assumed read-only, while a function
// declared without a body in a package being linted (an assembly kernel)
// is assumed to write through every pointer-like parameter.
package pubfreeze

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/astq"
	"setlearn/internal/lint/cfg"
	"setlearn/internal/lint/dataflow"
	"setlearn/internal/lint/summary"
)

// FrozenMarker annotates a type declaration whose methods must never
// mutate the receiver — the published-type form of the contract.
const FrozenMarker = "//lint:frozen"

// name is the analyzer name as a constant for helper code.
const name = "pubfreeze"

// maxDepth bounds the mutates-param summary call-chain depth.
const maxDepth = 16

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "values stored into atomic.Pointer/atomic.Value are frozen at the Store: no " +
		"path may mutate them afterwards, directly or through helper calls; types " +
		"annotated //lint:frozen must have no receiver-mutating methods at all",
	Run: run,
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		store:    summary.For(pass),
		visiting: make(map[string]bool),
	}
	c.memo = c.store.Memo("pubfreeze.mutates")
	c.checkFrozenTypes()
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			c.checkPublishFlow(fd, fd.Body)
			// Function literals are their own functions with their own CFGs:
			// a publish-then-mutate sequence inside a closure is checked in
			// the closure's frame.
			astq.Inspect(fd.Body, func(n ast.Node, _ []ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					c.checkPublishFlow(lit, lit.Body)
				}
				return true
			})
		}
	}
	return nil
}

type checker struct {
	pass     *analysis.Pass
	store    *summary.Store
	memo     *summary.Memo
	visiting map[string]bool
}

// --- frozen-type methods ---

// checkFrozenTypes flags every method of a //lint:frozen-annotated type
// that mutates its receiver, directly or through helpers.
func (c *checker) checkFrozenTypes() {
	frozen := make(map[types.Object]bool)
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			declFrozen := hasMarker(gd.Doc)
			for _, spec := range gd.Specs {
				ts, ok := spec.(*ast.TypeSpec)
				if !ok {
					continue
				}
				if declFrozen || hasMarker(ts.Doc) || hasMarker(ts.Comment) {
					if obj := c.pass.TypesInfo.Defs[ts.Name]; obj != nil {
						frozen[obj] = true
					}
				}
			}
		}
	}
	if len(frozen) == 0 {
		return
	}
	for _, f := range c.pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || fd.Recv == nil {
				continue
			}
			fn, ok := c.pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Type().(*types.Signature).Recv()
			named := astq.NamedOrPointee(recv.Type())
			if named == nil || !frozen[named.Obj()] {
				continue
			}
			d, ok := c.store.Resolve(fn)
			if !ok {
				continue
			}
			sum := c.summarize(d, 0)
			if len(sum.slots) == 0 || !sum.slots[0].mutated {
				continue
			}
			c.pass.Reportf(fd.Name.Pos(),
				"method %s of //lint:frozen type %s mutates its receiver: %s — frozen values are immutable once published; return a modified copy instead",
				fd.Name.Name, named.Obj().Name(), sum.slots[0].desc)
		}
	}
}

func hasMarker(cg *ast.CommentGroup) bool {
	if cg == nil {
		return false
	}
	for _, cmt := range cg.List {
		if cmt.Text == FrozenMarker || strings.HasPrefix(cmt.Text, FrozenMarker+" ") {
			return true
		}
	}
	return false
}

// --- publication dataflow ---

// pubRec records one publication of a variable.
type pubRec struct {
	pos  token.Pos // the Store/Swap/CompareAndSwap call
	what string    // rendered publish expression, e.g. "h.cur.Store"
}

// pubState maps variables to their (earliest) may-publish record. nil
// means nothing published.
type pubState map[*types.Var]pubRec

type pubLattice struct{}

func (pubLattice) Init() pubState { return nil }

func (pubLattice) Join(a, b pubState) pubState {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := make(pubState, len(a)+len(b))
	for v, r := range a {
		out[v] = r
	}
	for v, r := range b {
		if have, ok := out[v]; !ok || r.pos < have.pos {
			out[v] = r
		}
	}
	return out
}

func (pubLattice) Equal(a, b pubState) bool {
	if len(a) != len(b) {
		return false
	}
	for v, ra := range a {
		if rb, ok := b[v]; !ok || ra != rb {
			return false
		}
	}
	return true
}

// checkPublishFlow runs the may-published analysis over one function and
// reports mutations downstream of a publish point.
func (c *checker) checkPublishFlow(fn ast.Node, body *ast.BlockStmt) {
	if !c.hasPublish(body) {
		return
	}
	g := c.pass.CFG(fn)
	if g == nil {
		return
	}
	res := dataflow.Forward[pubState](g, pubLattice{}, nil, func(b *cfg.Block, in pubState) pubState {
		st := clonePub(in)
		for _, n := range b.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				continue // defers run at exit; handled below
			}
			c.applyNode(st, n)
		}
		if len(st) == 0 {
			return nil
		}
		return st
	})
	for _, b := range g.Blocks {
		st := clonePub(res.In[b])
		for _, n := range b.Nodes {
			if _, isDefer := n.(*ast.DeferStmt); isDefer {
				continue
			}
			c.checkMutations(st, n)
			c.applyNode(st, n)
		}
	}
	// Defers run on function exit, after every publish on the path; check
	// them against the joined exit state rather than their source position.
	if exitIn := res.In[g.Exit]; len(exitIn) > 0 {
		for _, d := range g.Defers {
			if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
				c.checkMutations(exitIn, lit.Body)
			} else {
				c.checkMutations(exitIn, d.Call)
			}
		}
	}
}

// hasPublish reports whether body contains a publish call outside nested
// function literals (the cheap pre-filter before building a CFG).
func (c *checker) hasPublish(body *ast.BlockStmt) bool {
	found := false
	astq.Inspect(body, func(n ast.Node, _ []ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && publishedExpr(c.pass.TypesInfo, call) != nil {
			found = true
			return false
		}
		return true
	})
	return found
}

// applyNode folds one CFG node into st: re-binding assignments kill
// published facts, publish calls add them.
func (c *checker) applyNode(st pubState, n ast.Node) {
	info := c.pass.TypesInfo
	astq.Inspect(n, func(m ast.Node, _ []ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v := identVar(info, id); v != nil {
						delete(st, v)
					}
				}
			}
		case *ast.ValueSpec:
			for _, id := range m.Names {
				if v := identVar(info, id); v != nil {
					delete(st, v)
				}
			}
		case *ast.CallExpr:
			if e := publishedExpr(info, m); e != nil {
				if v := publishedVar(info, e); v != nil {
					st[v] = pubRec{pos: m.Pos(), what: types.ExprString(m.Fun)}
				}
			}
		}
		return true
	})
}

// checkMutations reports every mutation of a published variable inside n,
// with st the may-published state just before n runs.
func (c *checker) checkMutations(st pubState, n ast.Node) {
	if len(st) == 0 {
		return
	}
	info := c.pass.TypesInfo
	astq.Inspect(n, func(m ast.Node, _ []ast.Node) bool {
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range m.Lhs {
				if v, deref := chainRoot(info, lhs); deref && v != nil {
					if rec, ok := st[v]; ok {
						c.reportMut(lhs.Pos(), v.Name(), rec,
							"`"+shortExpr(types.ExprString(lhs))+" = …`")
					}
				}
			}
		case *ast.IncDecStmt:
			if v, deref := chainRoot(info, m.X); deref && v != nil {
				if rec, ok := st[v]; ok {
					c.reportMut(m.Pos(), v.Name(), rec,
						"`"+shortExpr(types.ExprString(m.X))+m.Tok.String()+"`")
				}
			}
		case *ast.CallExpr:
			c.checkCallMutation(st, m)
		}
		return true
	})
}

// checkCallMutation handles calls: builtins that write their operand, and
// resolved callees whose mutates-param summary marks a slot a published
// variable flows into.
func (c *checker) checkCallMutation(st pubState, call *ast.CallExpr) {
	info := c.pass.TypesInfo
	switch builtinName(info, call) {
	case "append", "copy", "delete":
		if len(call.Args) > 0 {
			if v, _ := chainRoot(info, call.Args[0]); v != nil {
				if rec, ok := st[v]; ok {
					c.reportMut(call.Pos(), v.Name(), rec,
						"`"+builtinName(info, call)+"("+shortExpr(types.ExprString(call.Args[0]))+", …)` writes the published backing store")
				}
			}
		}
		return
	case "":
		// not a builtin; fall through to callee resolution
	default:
		return
	}
	if publishedExpr(info, call) != nil {
		return // the publish itself is not a mutation
	}
	fn := astq.CalleeFunc(info, call)
	if fn == nil {
		return
	}
	d, ok := c.store.Declared(fn)
	if !ok {
		return // no source in reach: assumed read-only (package doc caveat)
	}
	sum := c.summarize(d, 0)
	if len(sum.slots) == 0 {
		return
	}
	// Map the call's receiver and arguments onto the callee's slots.
	slot := 0
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			c.flagSlotMutation(st, call, fn, sum, 0, sel.X)
		}
		slot = 1
	}
	for i, arg := range call.Args {
		c.flagSlotMutation(st, call, fn, sum, slot+i, arg)
	}
}

// flagSlotMutation reports when arg roots at a published variable and the
// callee's summary marks the corresponding slot mutated.
func (c *checker) flagSlotMutation(st pubState, call *ast.CallExpr, fn *types.Func, sum mutSummary, slot int, arg ast.Expr) {
	if slot >= len(sum.slots) || !sum.slots[slot].mutated {
		return
	}
	v, _ := chainRoot(c.pass.TypesInfo, arg)
	if v == nil {
		return
	}
	rec, ok := st[v]
	if !ok {
		return
	}
	c.reportMut(call.Pos(), v.Name(), rec, "call to "+fn.Name()+" reaches "+sum.slots[slot].desc)
}

// reportMut emits the mutation diagnostic with the copy-on-write hint.
func (c *checker) reportMut(pos token.Pos, varName string, rec pubRec, how string) {
	c.pass.Reportf(pos,
		"%s mutates `%s` after it was published by %s at %s — published state is frozen; copy-on-write instead: build a fresh value, mutate the fresh one, then Store the fresh pointer",
		how, varName, rec.what, summary.FormatPos(c.pass.Fset, rec.pos))
}

// --- mutates-param summaries ---

// slotSum is the summary of one pointer-like slot (receiver first, then
// parameters) of a function: whether any path mutates the object the slot
// points at, with the construct that does it.
type slotSum struct {
	mutated bool
	desc    string // construct + position
}

// mutSummary is the bottom-up mutates-param summary of one function.
type mutSummary struct {
	slots     []slotSum
	truncated bool // cut short by recursion; not memoised
}

// summarize computes (or recalls) d's mutates-param summary: which of its
// pointer-like receiver/parameter slots the body may mutate, directly or
// through callees.
func (c *checker) summarize(d summary.Fn, depth int) mutSummary {
	if v, ok := c.memo.Get(d.Func); ok {
		return v.(mutSummary)
	}
	if depth > maxDepth {
		return mutSummary{truncated: true}
	}
	key := d.Func.FullName()
	if c.visiting[key] {
		return mutSummary{truncated: true}
	}
	c.visiting[key] = true
	defer delete(c.visiting, key)

	pi := d.Pkg
	info := pi.Info
	sup := c.store.Suppressions(pi)

	// Slot layout: receiver (when present and pointer-like) then params.
	slotOf := make(map[*types.Var]int)
	sig := d.Func.Type().(*types.Signature)
	nslots := sig.Params().Len()
	if sig.Recv() != nil {
		nslots++
	}
	sum := mutSummary{slots: make([]slotSum, nslots)}
	reg := func(fl *ast.FieldList, base int) {
		if fl == nil {
			return
		}
		i := base
		for _, f := range fl.List {
			for _, id := range f.Names {
				if v, ok := info.Defs[id].(*types.Var); ok {
					if pointerLike(v.Type()) {
						slotOf[v] = i
					}
					i++
				}
			}
			if len(f.Names) == 0 {
				i++ // unnamed parameter still occupies a slot
			}
		}
	}
	base := 0
	if sig.Recv() != nil {
		reg(d.Decl.Recv, 0)
		base = 1
	}
	reg(d.Decl.Type.Params, base)

	killed := make(map[*types.Var]bool)
	mark := func(slot int, pos token.Pos, desc string) {
		if sum.slots[slot].mutated {
			return
		}
		if sup.Allows(name, pi.Fset.Position(pos)) {
			return
		}
		sum.slots[slot] = slotSum{mutated: true, desc: desc}
	}
	direct := func(e ast.Expr, pos token.Pos, desc string) {
		v, deref := chainRoot(info, e)
		if !deref || v == nil || killed[v] {
			return
		}
		if slot, ok := slotOf[v]; ok {
			mark(slot, pos, desc+" at "+summary.FormatPos(pi.Fset, pos))
		}
	}

	if d.Decl.Body == nil {
		// An assembly body: nothing to read, so every pointer-like
		// parameter may be written through.
		pos := d.Decl.Name.Pos()
		for _, slot := range slotOf {
			mark(slot, pos, "`"+d.Decl.Name.Name+"`, declared without a Go body at "+summary.FormatPos(pi.Fset, pos)+" and assumed to write through its pointer-like parameters")
		}
		c.memo.Set(d.Func, sum)
		return sum
	}

	astq.Inspect(d.Decl.Body, func(n ast.Node, _ []ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				direct(lhs, lhs.Pos(), "`"+shortExpr(types.ExprString(lhs))+" = …`")
				if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
					if v := identVar(info, id); v != nil {
						killed[v] = true // re-bound: later writes hit the new value
					}
				}
			}
		case *ast.IncDecStmt:
			direct(n.X, n.Pos(), "`"+shortExpr(types.ExprString(n.X))+n.Tok.String()+"`")
		case *ast.CallExpr:
			c.summarizeCall(d, n, slotOf, killed, &sum, depth, mark)
		}
		return true
	})

	if !sum.truncated {
		c.memo.Set(d.Func, sum)
	}
	return sum
}

// summarizeCall folds one call inside d into the summary: operand-writing
// builtins mutate directly, resolved callees propagate their own slots.
func (c *checker) summarizeCall(d summary.Fn, call *ast.CallExpr, slotOf map[*types.Var]int, killed map[*types.Var]bool, sum *mutSummary, depth int, mark func(int, token.Pos, string)) {
	pi := d.Pkg
	info := pi.Info
	switch builtinName(info, call) {
	case "append", "copy", "delete":
		if len(call.Args) > 0 {
			if v, _ := chainRoot(info, call.Args[0]); v != nil && !killed[v] {
				if slot, ok := slotOf[v]; ok {
					mark(slot, call.Pos(),
						"`"+builtinName(info, call)+"("+shortExpr(types.ExprString(call.Args[0]))+", …)` at "+summary.FormatPos(pi.Fset, call.Pos()))
				}
			}
		}
		return
	case "":
	default:
		return
	}
	fn := astq.CalleeFunc(info, call)
	if fn == nil {
		return
	}
	d2, ok := c.store.Declared(fn)
	if !ok {
		return
	}
	sub := c.summarize(d2, depth+1)
	sum.truncated = sum.truncated || sub.truncated
	if len(sub.slots) == 0 {
		return
	}
	propagate := func(calleeSlot int, arg ast.Expr) {
		if calleeSlot >= len(sub.slots) || !sub.slots[calleeSlot].mutated {
			return
		}
		v, _ := chainRoot(info, arg)
		if v == nil || killed[v] {
			return
		}
		slot, ok := slotOf[v]
		if !ok {
			return
		}
		mark(slot, call.Pos(), sub.slots[calleeSlot].desc)
	}
	argBase := 0
	sig := fn.Type().(*types.Signature)
	if sig.Recv() != nil {
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			propagate(0, sel.X)
		}
		argBase = 1
	}
	for i, arg := range call.Args {
		propagate(argBase+i, arg)
	}
}

// --- small helpers ---

// publishedExpr returns the expression a call publishes when call is
// Store/Swap/CompareAndSwap on a sync/atomic Pointer or Value, else nil.
func publishedExpr(info *types.Info, call *ast.CallExpr) ast.Expr {
	fn := astq.CalleeFunc(info, call)
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	named := astq.NamedOrPointee(sig.Recv().Type())
	if named == nil {
		return nil
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync/atomic" {
		return nil
	}
	if obj.Name() != "Pointer" && obj.Name() != "Value" {
		return nil
	}
	switch fn.Name() {
	case "Store", "Swap":
		if len(call.Args) == 1 {
			return call.Args[0]
		}
	case "CompareAndSwap":
		if len(call.Args) == 2 {
			return call.Args[1]
		}
	}
	return nil
}

// publishedVar extracts the variable a publish expression names: Store(v)
// or Store(&v). Anything else — inline literals, index expressions — has
// no name to track mutations through and stays untracked.
func publishedVar(info *types.Info, e ast.Expr) *types.Var {
	e = ast.Unparen(e)
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
		e = ast.Unparen(u.X)
	}
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	return identVar(info, id)
}

// identVar resolves id to its variable object (defs or uses), skipping
// the blank identifier.
func identVar(info *types.Info, id *ast.Ident) *types.Var {
	if id.Name == "_" {
		return nil
	}
	if v, ok := info.Defs[id].(*types.Var); ok {
		return v
	}
	v, _ := info.Uses[id].(*types.Var)
	return v
}

// chainRoot walks an lvalue chain (selectors, indexes, derefs, slices)
// to its root identifier. deref reports whether the chain goes through at
// least one projection — writing `v.f` or `v[i]` mutates the object v
// refers to, while writing plain `v` merely re-binds the variable.
func chainRoot(info *types.Info, e ast.Expr) (root *types.Var, deref bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SelectorExpr:
			deref = true
			e = x.X
		case *ast.IndexExpr:
			deref = true
			e = x.X
		case *ast.StarExpr:
			deref = true
			e = x.X
		case *ast.SliceExpr:
			deref = true
			e = x.X
		case *ast.UnaryExpr:
			if x.Op != token.AND {
				return nil, false
			}
			e = x.X
		case *ast.Ident:
			v := identVar(info, x)
			if v == nil {
				return nil, false
			}
			// A selector chain rooted at a package name (pkg.Var) resolves
			// the var, not a local; treat the var itself as the root.
			return v, deref
		default:
			return nil, false
		}
	}
}

// pointerLike reports whether mutating through a value of type t is
// visible to other holders of the same value: pointers, slices, and maps.
func pointerLike(t types.Type) bool {
	switch t.Underlying().(type) {
	case *types.Pointer, *types.Slice, *types.Map:
		return true
	}
	return false
}

func builtinName(info *types.Info, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

func clonePub(st pubState) pubState {
	out := make(pubState, len(st))
	for v, r := range st {
		out[v] = r
	}
	return out
}

// shortExpr clamps rendered expressions so diagnostics stay one line.
func shortExpr(s string) string {
	if len(s) > 48 {
		return s[:45] + "..."
	}
	return s
}
