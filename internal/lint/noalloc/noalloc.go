// Package noalloc statically enforces the zero-allocation contract of
// functions annotated //lint:hotpath: no allocating construct may be
// reachable from an annotated root through any call chain. The dynamic
// pins (testing.AllocsPerRun in deepsets/alloc_test.go) catch regressions
// on the inputs they run; this analyzer catches them on every path, at
// lint time, with a call-chain trace — a helper extracted from
// Delta.Count cannot silently reintroduce an allocation.
//
// Allocating constructs: make, new, append, escaping composite literals
// (slice/map literals and address-taken &T{...}; plain struct literals
// are stack values), map writes, string concatenation,
// string↔[]byte/[]rune conversions,
// interface boxing (concrete non-pointer values passed or assigned to
// interfaces), closure creation, go statements, and calls into allocating
// standard-library packages (fmt, strings, strconv, errors, bytes, sort,
// reflect, regexp, os, io, bufio, log, encoding/*). Calls are followed
// through the summary framework: module-local callees are resolved across
// package boundaries (via the driver's LoadPackage hook) and summarised
// bottom-up; unresolvable calls — function values, interfaces without
// in-package implementations — are themselves findings, since nothing can
// be proven about them.
//
// Three idioms that are allocation-free in steady state are exempt:
//
//   - capacity-guarded growth: make/append under an if whose condition
//     consults cap(...) — the amortised grow-once buffer idiom
//     (Predictor.PredictBatch),
//   - panic arguments: allocations (fmt.Sprintf above all) inside the
//     argument of a panic call happen only on the failure path,
//   - append to a caller-provided parameter slice: the documented
//     buffer-reuse idiom (compress.Compress appends into the caller's
//     scratch and returns it).
//
// Soundness caveats, documented in DESIGN.md §10: standard-library calls
// outside the denylist (math, sync, atomic) are assumed allocation-free;
// sync.Pool.Get allocates on a cold pool (steady-state assumption);
// variables captured by reference in deferred literals may be
// heap-allocated by escape analysis; interface boxing is checked at call
// arguments, explicit conversions and assignments, not at returns. Under
// the vet unitchecker (no source for dependencies) the analysis degrades
// to package-local call chains.
//
// A finding is reported at the hotpath root's declaration; //lint:allow
// noalloc there silences the whole tree, while an allow on the offending
// leaf line silences that construct in every trace that reaches it.
package noalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/astq"
	"setlearn/internal/lint/callgraph"
	"setlearn/internal/lint/summary"
)

// HotpathMarker is the annotation comment that opts a function into the
// zero-allocation contract.
const HotpathMarker = "//lint:hotpath"

const (
	maxDepth           = 32 // call-chain depth bound
	maxFindingsPerFunc = 10 // findings carried per function summary
)

// allocPkgs are standard-library packages whose exported calls are treated
// as allocating. Everything else in the stdlib (math, sync, sync/atomic,
// builtin runtime support) is assumed allocation-free — hot paths have no
// business calling the listed packages anyway.
var allocPkgs = map[string]bool{
	"fmt": true, "strings": true, "strconv": true, "errors": true,
	"bytes": true, "sort": true, "reflect": true, "regexp": true,
	"os": true, "io": true, "bufio": true, "log": true, "unicode/utf8": true,
}

func allocPkg(path string) bool {
	return allocPkgs[path] || strings.HasPrefix(path, "encoding/")
}

// name is the analyzer name, needed as a constant so helper code can
// reference it without an initialization cycle through Analyzer.
const name = "noalloc"

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "functions annotated //lint:hotpath must not reach any allocating construct " +
		"through any call chain; cap-guarded growth, panic arguments, and appends to " +
		"caller-provided buffers are exempt",
	Scope: []string{
		"setlearn/internal/deepsets",
		"setlearn/internal/mat",
		"setlearn/internal/shard",
		"setlearn/internal/hybrid",
		// The CI seeded-regression module: a deliberately-allocating
		// hotpath helper that `make lint-interproc` must reject.
		"setlearn/internal/lint/testdata/seedmod",
	},
	Run: run,
}

// IsHotpath reports whether the declaration carries the //lint:hotpath
// annotation in its doc comment.
func IsHotpath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if c.Text == HotpathMarker || strings.HasPrefix(c.Text, HotpathMarker+" ") {
			return true
		}
	}
	return false
}

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		store:    summary.For(pass),
		visiting: make(map[string]bool),
	}
	c.memo = c.store.Memo("noalloc")
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !IsHotpath(fd) {
				continue
			}
			fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			c.checkRoot(fd, fn)
		}
	}
	return nil
}

// finding is one allocating construct reachable from a function, with the
// call chain (relative to that function) leading to it.
type finding struct {
	desc  string   // construct + position, e.g. `make([]float64, n) at deepsets/deepsets.go:389`
	steps []string // call chain, outermost call first, e.g. `pooled (deepsets/deepsets.go:425)`
}

// fnSummary is the bottom-up noalloc summary of one function.
type fnSummary struct {
	findings []finding
	// truncated marks summaries cut short by a recursion back edge (a
	// callee still on the DFS stack); they are not memoised, so a later
	// query entering the cycle elsewhere still sees every member.
	truncated bool
}

type checker struct {
	pass     *analysis.Pass
	store    *summary.Store
	memo     *summary.Memo
	visiting map[string]bool
}

func (c *checker) checkRoot(fd *ast.FuncDecl, fn *types.Func) {
	d, ok := c.store.Resolve(fn)
	if !ok {
		return
	}
	sum := c.summarize(d, 0)
	seen := make(map[string]bool)
	for _, f := range sum.findings {
		key := f.desc + "|" + strings.Join(f.steps, "|")
		if seen[key] {
			continue
		}
		seen[key] = true
		if len(f.steps) == 0 {
			c.pass.Reportf(fd.Name.Pos(), "hotpath %s contains an allocating construct: %s — restructure, or annotate the construct with //lint:allow noalloc -- <why>",
				fd.Name.Name, f.desc)
			continue
		}
		c.pass.ReportTracef(fd.Name.Pos(), f.steps, "hotpath %s reaches an allocating construct: %s via %s — restructure, or annotate the construct with //lint:allow noalloc -- <why>",
			fd.Name.Name, f.desc, strings.Join(f.steps, " → "))
	}
}

// summarize computes (or recalls) the noalloc summary of a resolved
// function: its own allocation sites plus every callee's, composed with
// the call step prepended to each trace.
func (c *checker) summarize(d summary.Fn, depth int) fnSummary {
	if v, ok := c.memo.Get(d.Func); ok {
		return v.(fnSummary)
	}
	if depth > maxDepth {
		return fnSummary{truncated: true}
	}
	key := d.Func.FullName()
	if c.visiting[key] {
		return fnSummary{truncated: true}
	}
	c.visiting[key] = true
	defer delete(c.visiting, key)

	sites, calls := c.scanBody(d)
	var sum fnSummary
	for _, s := range sites {
		sum.findings = append(sum.findings, finding{desc: s})
	}
	for _, call := range calls {
		sub := c.summarize(call.callee, depth+1)
		sum.truncated = sum.truncated || sub.truncated
		for _, f := range sub.findings {
			if len(sum.findings) >= maxFindingsPerFunc {
				break
			}
			steps := make([]string, 0, len(f.steps)+1)
			steps = append(steps, call.step)
			steps = append(steps, f.steps...)
			sum.findings = append(sum.findings, finding{desc: f.desc, steps: steps})
		}
	}
	if len(sum.findings) > maxFindingsPerFunc {
		sum.findings = sum.findings[:maxFindingsPerFunc]
	}
	if !sum.truncated {
		c.memo.Set(d.Func, sum)
	}
	return sum
}

// callEdge is one resolved module-local call out of a function.
type callEdge struct {
	step   string // `pooled (deepsets/deepsets.go:425)`
	callee summary.Fn
}

// scanBody collects the allocation sites and outgoing resolved calls of
// d's body. Sites covered by a justified //lint:allow noalloc comment in
// d's own package are dropped here, so leaf suppressions hold for every
// root that reaches them.
func (c *checker) scanBody(d summary.Fn) (sites []string, calls []callEdge) {
	pi := d.Pkg
	sup := c.store.Suppressions(pi)
	edges := siteEdges(c.store.Graph(pi), d.Func)
	owned := paramObjects(pi.Info, d.Decl)

	addSite := func(pos ast.Node, desc string) {
		if sup.Allows(name, pi.Fset.Position(pos.Pos())) {
			return
		}
		sites = append(sites, desc+" at "+summary.FormatPos(pi.Fset, pos.Pos()))
	}

	astq.Inspect(d.Decl.Body, func(n ast.Node, stack []ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			addSite(n, "go statement (goroutine allocation)")
			return false
		case *ast.FuncLit:
			if astq.DeferredLit(n, stack) {
				return true // runs within this function; scan its body
			}
			addSite(n, "function literal (closure allocation)")
			return false
		case *ast.CompositeLit:
			if !inPanicArg(pi.Info, stack) {
				c.checkCompositeLit(pi, n, stack, addSite)
			}
			return true
		case *ast.BinaryExpr:
			c.checkConcat(pi, n, addSite)
		case *ast.AssignStmt:
			c.checkAssign(pi, n, addSite)
		case *ast.IncDecStmt:
			if ix, ok := ast.Unparen(n.X).(*ast.IndexExpr); ok && isMapIndex(pi.Info, ix) {
				addSite(n, "map write "+short(types.ExprString(n.X)))
			}
		case *ast.CallExpr:
			c.checkCall(pi, n, stack, owned, edges, addSite, &calls)
		}
		return true
	})
	return sites, calls
}

func (c *checker) checkCall(pi *analysis.PackageInfo, call *ast.CallExpr, stack []ast.Node, owned map[types.Object]bool, edges map[*ast.CallExpr]callgraph.Edge, addSite func(ast.Node, string), calls *[]callEdge) {
	info := pi.Info
	switch builtinName(info, call) {
	case "make":
		if !capGuarded(info, stack) && !inPanicArg(info, stack) {
			addSite(call, short(types.ExprString(call)))
		}
		return
	case "new":
		if !inPanicArg(info, stack) {
			addSite(call, short(types.ExprString(call)))
		}
		return
	case "append":
		if len(call.Args) > 0 && ownedSlice(info, call.Args[0], owned) {
			return // append into a caller-provided buffer: the reuse idiom
		}
		if !capGuarded(info, stack) && !inPanicArg(info, stack) {
			addSite(call, short(types.ExprString(call)))
		}
		return
	case "":
		// not a builtin; fall through
	default:
		return // len/cap/copy/delete/panic/... do not allocate
	}

	if tv, ok := info.Types[ast.Unparen(call.Fun)]; ok && tv.IsType() {
		c.checkConversion(pi, call, tv.Type, stack, addSite)
		return
	}

	e, ok := edges[call]
	if !ok {
		return
	}
	if e.Unbounded {
		if !inPanicArg(info, stack) {
			addSite(call, "indirect call "+short(types.ExprString(call.Fun))+" (cannot be proven allocation-free)")
		}
		return
	}
	flagged := false
	for _, callee := range e.Callees {
		if d, resolved := c.store.Resolve(callee); resolved {
			*calls = append(*calls, callEdge{
				step:   callee.Name() + " (" + summary.FormatPos(pi.Fset, call.Pos()) + ")",
				callee: d,
			})
			continue
		}
		path := ""
		if callee.Pkg() != nil {
			path = callee.Pkg().Path()
		}
		if allocPkg(path) && !inPanicArg(info, stack) {
			addSite(call, "call to "+path+"."+callee.Name()+" (allocates)")
			flagged = true
		}
		// Other unresolved callees (math, sync, atomic, other modules
		// without source) are assumed allocation-free — see package doc.
	}
	if !flagged && !inPanicArg(info, stack) {
		c.checkBoxingArgs(pi, call, addSite)
	}
}

// checkCompositeLit flags the composite literals that allocate: slice and
// map literals always carry a heap-backed store, and an address-taken
// literal (&T{...}) escapes unless the compiler proves otherwise. A plain
// struct or array literal is a stack value and stays clean — if it is
// boxed or escapes some other way, the boxing checks catch that flow.
func (c *checker) checkCompositeLit(pi *analysis.PackageInfo, lit *ast.CompositeLit, stack []ast.Node, addSite func(ast.Node, string)) {
	tv, ok := pi.Info.Types[lit]
	if !ok || tv.Type == nil {
		return
	}
	switch tv.Type.Underlying().(type) {
	case *types.Slice:
		addSite(lit, "slice literal "+short(types.ExprString(lit)))
		return
	case *types.Map:
		addSite(lit, "map literal "+short(types.ExprString(lit)))
		return
	}
	if len(stack) > 0 {
		if u, ok := stack[len(stack)-1].(*ast.UnaryExpr); ok && u.Op == token.AND {
			addSite(u, "address-taken composite literal "+short(types.ExprString(u)))
		}
	}
}

// checkConversion flags conversions that allocate: string↔[]byte/[]rune
// and boxing conversions to interface types.
func (c *checker) checkConversion(pi *analysis.PackageInfo, call *ast.CallExpr, dst types.Type, stack []ast.Node, addSite func(ast.Node, string)) {
	if len(call.Args) != 1 || inPanicArg(pi.Info, stack) {
		return
	}
	argTV, ok := pi.Info.Types[call.Args[0]]
	if !ok || argTV.Value != nil {
		return // constant conversions happen at compile time
	}
	src := argTV.Type
	if isString(dst) && isByteOrRuneSlice(src) || isByteOrRuneSlice(dst) && isString(src) {
		addSite(call, "conversion "+short(types.ExprString(call))+" copies its operand")
		return
	}
	if types.IsInterface(dst) && boxes(src) {
		addSite(call, "interface conversion "+short(types.ExprString(call))+" boxes a value")
	}
}

// checkBoxingArgs flags concrete non-pointer values passed to interface
// parameters — each such argument is boxed into an interface at the call.
func (c *checker) checkBoxingArgs(pi *analysis.PackageInfo, call *ast.CallExpr, addSite func(ast.Node, string)) {
	tv, ok := pi.Info.Types[call.Fun]
	if !ok || tv.Type == nil {
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1 && call.Ellipsis == 0:
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		case i < params.Len():
			pt = params.At(i).Type()
		default:
			continue
		}
		atv, ok := pi.Info.Types[arg]
		if !ok || atv.Type == nil || atv.IsNil() {
			continue
		}
		if types.IsInterface(pt) && !types.IsInterface(atv.Type) && boxes(atv.Type) {
			addSite(arg, "argument "+short(types.ExprString(arg))+" boxed into interface parameter")
		}
	}
}

func (c *checker) checkConcat(pi *analysis.PackageInfo, e *ast.BinaryExpr, addSite func(ast.Node, string)) {
	if e.Op != token.ADD {
		return
	}
	tv, ok := pi.Info.Types[e]
	if !ok || tv.Value != nil || !isString(tv.Type) {
		return
	}
	addSite(e, "string concatenation "+short(types.ExprString(e)))
}

func (c *checker) checkAssign(pi *analysis.PackageInfo, a *ast.AssignStmt, addSite func(ast.Node, string)) {
	info := pi.Info
	for _, lhs := range a.Lhs {
		if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && isMapIndex(info, ix) {
			addSite(lhs, "map write "+short(types.ExprString(lhs)))
		}
	}
	// Boxing through assignment: concrete non-pointer RHS into an
	// interface-typed LHS (1:1 assignments only).
	if len(a.Lhs) != len(a.Rhs) {
		return
	}
	for i, lhs := range a.Lhs {
		if id, ok := ast.Unparen(lhs).(*ast.Ident); ok && id.Name == "_" {
			continue
		}
		lt := lhsType(info, lhs)
		rtv, ok := info.Types[a.Rhs[i]]
		if lt == nil || !ok || rtv.Type == nil || rtv.IsNil() {
			continue
		}
		if types.IsInterface(lt) && !types.IsInterface(rtv.Type) && boxes(rtv.Type) {
			addSite(a.Rhs[i], "value "+short(types.ExprString(a.Rhs[i]))+" boxed into interface "+short(types.ExprString(lhs)))
		}
	}
}

// --- small type/AST helpers ---

// siteEdges indexes fn's callgraph edges by call site.
func siteEdges(g *callgraph.Graph, fn *types.Func) map[*ast.CallExpr]callgraph.Edge {
	out := make(map[*ast.CallExpr]callgraph.Edge)
	if n, ok := g.Nodes[fn]; ok {
		for _, e := range n.Edges {
			out[e.Site] = e
		}
	}
	return out
}

// paramObjects returns the parameter and receiver objects of fd — the
// slices a function may append into without owning the allocation.
func paramObjects(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, f := range fl.List {
			for _, name := range f.Names {
				if obj := info.Defs[name]; obj != nil {
					out[obj] = true
				}
			}
		}
	}
	add(fd.Recv)
	add(fd.Type.Params)
	return out
}

// ownedSlice reports whether e (an append destination) bottoms out in a
// parameter or receiver of the enclosing function — possibly through
// re-slicing like buf[:0] — so the backing array belongs to the caller.
func ownedSlice(info *types.Info, e ast.Expr, owned map[types.Object]bool) bool {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.SliceExpr:
			e = x.X
		case *ast.Ident:
			return owned[info.Uses[x]]
		default:
			return false
		}
	}
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

// capGuarded reports whether an ancestor if-statement's condition consults
// cap(...): the grow-once buffer idiom's signature.
func capGuarded(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			continue
		}
		found := false
		ast.Inspect(ifs.Cond, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok && builtinName(info, call) == "cap" {
				found = true
				return false
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// inPanicArg reports whether an ancestor is a panic(...) call — the
// construct only runs on the failure path.
func inPanicArg(info *types.Info, stack []ast.Node) bool {
	for _, n := range stack {
		if call, ok := n.(*ast.CallExpr); ok && builtinName(info, call) == "panic" {
			return true
		}
	}
	return false
}

func isMapIndex(info *types.Info, ix *ast.IndexExpr) bool {
	tv, ok := info.Types[ix.X]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
		b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

// boxes reports whether storing a value of type t in an interface
// allocates: pointers, channels, maps, funcs, and unsafe pointers are
// stored directly in the interface word, and zero-size values share the
// runtime's zero base.
func boxes(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return false
	case *types.Basic:
		return u.Kind() != types.UnsafePointer
	case *types.Struct:
		return u.NumFields() > 0
	case *types.Array:
		return u.Len() > 0
	}
	return true
}

func lhsType(info *types.Info, lhs ast.Expr) types.Type {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if obj := info.Defs[id]; obj != nil {
			return obj.Type()
		}
		if obj := info.Uses[id]; obj != nil {
			return obj.Type()
		}
	}
	if tv, ok := info.Types[lhs]; ok {
		return tv.Type
	}
	return nil
}

// short clamps rendered expressions so diagnostics stay one-line readable.
func short(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
