// Package trustlen tracks untrusted decoded lengths to the allocations
// they size. A count read from persisted or network bytes — binary.Read
// into an integer, a gob/json Decode into a header struct, an HTTP
// request's ContentLength — is attacker-controlled until a comparison
// bounds it; passing it straight to make([]T, n) lets a corrupt or
// hostile input demand gigabytes (or, multiplied, overflow int) before
// any checksum is verified. The SLSHRD1 loaders learned this the hard
// way; this analyzer makes the rule mechanical: every value tainted by a
// decode must pass through a dominating bounds check before it reaches a
// make size/capacity argument or io.CopyN limit.
//
// Taint is tracked per (variable, field path) over the function's CFG
// with a forward may-analysis: a gob Decode into &hdr taints every path
// rooted at hdr; `if hdr.K > maxK { return err }` marks hdr.K checked on
// BOTH branches (the analyzer trusts any comparison that mentions the
// value — it checks that a bound exists, not that the bound is right);
// hdr.N stays unchecked. Taint follows assignments, arithmetic,
// conversions, and range statements; len() and cap() results are
// trusted (they measure real data).
//
// Interprocedurally (via the summary framework):
//
//   - a helper that passes a parameter field to a make size without
//     checking it inherits the obligation — calling it with a tainted
//     argument is reported at the call site with the call-chain trace,
//     unless the caller already checked the specific field the sink uses;
//   - a helper that compares its parameter against anything is treated
//     as a validator: after the call the argument counts as checked
//     (the validate-then-use idiom);
//   - a function whose return value derives from a decode taints the
//     variable it is assigned to in the caller, carrying the set of
//     field paths the function already validated (the parse-and-check
//     header-loader idiom), so only the unvalidated fields stay hot.
//
// Limitations (documented in DESIGN.md §10): function literals are not
// analyzed; a comparison against another untrusted value satisfies the
// check (the analyzer verifies presence, not sufficiency); taint through
// maps, channels, and globals is not tracked.
package trustlen

import (
	"go/ast"
	"go/token"
	"go/types"
	"strconv"
	"strings"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/astq"
	"setlearn/internal/lint/cfg"
	"setlearn/internal/lint/dataflow"
	"setlearn/internal/lint/summary"
)

const name = "trustlen"

const (
	maxPathLen  = 4 // field-path depth cap per tainted root
	maxCallDeep = 8 // interprocedural summary recursion cap
)

var Analyzer = &analysis.Analyzer{
	Name: name,
	Doc: "lengths decoded from untrusted bytes (binary.Read counts, gob/json headers, " +
		"HTTP bodies) must pass a dominating bounds check before sizing an allocation",
	Scope: []string{
		"setlearn/internal/blockio",
		"setlearn/internal/bloom",
		"setlearn/internal/core",
		"setlearn/internal/deepsets",
		"setlearn/internal/hybrid",
		"setlearn/internal/nn",
		"setlearn/internal/server",
		"setlearn/internal/shard",
		"setlearn/internal/lint/testdata/seedmod",
	},
	Run: run,
}

// taint is the lattice value for one (root, path) key.
type taint struct {
	checked bool
	origin  int    // -1: external source; >=0: the function's own parameter index
	src     string // human description of the source, e.g. "binary.Read at nn/io.go:58"
}

// state maps taint keys (object id + field path) to their taint. A key is
// dangerous when present and unchecked; absent or checked keys are safe.
type state map[string]taint

func (s state) clone() state {
	out := make(state, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// lattice is the may-taint lattice: union of keys, a key checked only
// when checked on every joining path.
type lattice struct{}

func (lattice) Init() state { return nil }

func (lattice) Join(a, b state) state {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	out := a.clone()
	for k, tb := range b {
		if ta, ok := out[k]; ok {
			ta.checked = ta.checked && tb.checked
			out[k] = ta
		} else {
			out[k] = tb
		}
	}
	return out
}

func (lattice) Equal(a, b state) bool {
	if len(a) != len(b) {
		return false
	}
	for k, ta := range a {
		tb, ok := b[k]
		if !ok || ta.checked != tb.checked || ta.origin != tb.origin {
			return false
		}
	}
	return true
}

// fnSummary is the bottom-up trustlen summary of one function.
type fnSummary struct {
	// paramSinks[i] lists the unchecked sinks parameter i reaches inside
	// the function (directly or through its own callees).
	paramSinks map[int][]sinkDesc
	// checksParam[i] reports that the function compares parameter i
	// against something — the validator heuristic.
	checksParam map[int]bool
	// taintedReturn describes a non-error result carrying decode taint,
	// or nil.
	taintedReturn *retTaint
}

// retTaint is the summary of a tainted return value: where the taint came
// from and which field paths the function validated before returning on
// its success path.
type retTaint struct {
	src          string
	checkedPaths map[string]bool // e.g. {".Shards": true, ".Version": true}
}

// sinkDesc is one sink a parameter reaches, with the call chain inside
// the summarised function (empty steps for a direct sink) and the field
// path of the parameter the sink consumes ("" when untrackable).
type sinkDesc struct {
	desc  string // e.g. "make([]byte, n) at blockio/blockio.go:44"
	path  string // e.g. ".Shards" — relative to the parameter root
	steps []string
}

// sinkFn is the active sink collector: the replay reporter during
// diagnosis, or summarize's parameter-sink recorder. path is the sink's
// field path relative to the taint's root entry.
type sinkFn func(pos token.Pos, t taint, path, desc string, steps []string)

func run(pass *analysis.Pass) error {
	c := &checker{
		pass:     pass,
		store:    summary.For(pass),
		visiting: make(map[string]bool),
	}
	c.memo = c.store.Memo(name)
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func); ok {
				c.checkDecl(fd, fn)
			}
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

// checkDecl analyses one current-package function: solve the taint
// fixpoint from an empty entry state, then replay every block reporting
// sinks fed by unchecked external taint.
func (c *checker) checkDecl(fd *ast.FuncDecl, fn *types.Func) {
	d, ok := c.store.Resolve(fn)
	if !ok {
		return
	}
	fc := newFuncCtx(d)
	g := cfg.Build(d.Pkg.Fset, fd.Body)
	res := dataflow.Forward[state](g, lattice{}, nil, func(b *cfg.Block, in state) state {
		return c.interpret(fc, b, in, 0, nil)
	})
	for _, b := range g.Blocks {
		c.interpret(fc, b, res.In[b], 0, func(pos token.Pos, t taint, _, desc string, steps []string) {
			if t.origin >= 0 {
				return // parameter taint is the caller's obligation
			}
			if len(steps) == 0 {
				c.pass.Reportf(pos, "%s is sized by untrusted %s without a dominating bounds check — compare it against a limit first, or annotate with //lint:allow trustlen -- <why>",
					desc, t.src)
				return
			}
			c.pass.Reportf(pos, "call passes untrusted %s to %s, reaching %s via %s without a bounds check — validate it first, or annotate with //lint:allow trustlen -- <why>",
				t.src, steps[0], desc, strings.Join(steps, " → "))
		})
	}
}

// funcCtx carries the per-function context interpret needs beyond the
// resolved declaration: the CFG stores a range statement's operand as a
// bare expression node, so the Key/Value binding is recovered by operand
// identity.
type funcCtx struct {
	d      summary.Fn
	ranges map[ast.Node]*ast.RangeStmt // operand expr → its range statement
}

func newFuncCtx(d summary.Fn) *funcCtx {
	fc := &funcCtx{d: d, ranges: map[ast.Node]*ast.RangeStmt{}}
	ast.Inspect(d.Decl.Body, func(n ast.Node) bool {
		if r, ok := n.(*ast.RangeStmt); ok {
			fc.ranges[r.X] = r
		}
		_, lit := n.(*ast.FuncLit)
		return !lit
	})
	return fc
}

// interpret runs b's nodes over in, returning the out state. When report
// is non-nil, unchecked taint reaching a sink is passed to it.
func (c *checker) interpret(fc *funcCtx, b *cfg.Block, in state, depth int, report sinkFn) state {
	st := in.clone()
	for _, n := range b.Nodes {
		c.node(fc, n, st, depth, report)
	}
	return st
}

// node interprets one CFG node in source order: sources taint, comparisons
// check, assignments propagate, sinks report.
func (c *checker) node(fc *funcCtx, n ast.Node, st state, depth int, report sinkFn) {
	d := fc.d
	if r, ok := fc.ranges[n]; ok {
		defer c.rangeStmt(d, r, st) // bind Key/Value after the operand runs
	}
	astq.Inspect(n, func(x ast.Node, stack []ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false // separate function; not analyzed (see package doc)
		case *ast.BinaryExpr:
			if isComparison(x.Op) {
				c.markChecked(d, x, st)
			}
		case *ast.CallExpr:
			c.call(d, x, st, depth, report)
		case *ast.AssignStmt:
			c.assign(d, x, st, depth)
		}
		return true
	})
}

// call handles one call expression: source calls taint their pointer
// argument, sinks consume taint, and summarised callees contribute their
// parameter obligations and validator effects.
func (c *checker) call(d summary.Fn, call *ast.CallExpr, st state, depth int, report sinkFn) {
	info := d.Pkg.Info
	fset := d.Pkg.Fset

	// Sources: decoding into &x taints every path under x.
	if src, ptr := sourceCall(info, call); ptr != nil {
		if key, ok := keyFor(info, derefTarget(ptr)); ok {
			st[key] = taint{origin: -1, src: src + " at " + summary.FormatPos(fset, call.Pos())}
		}
		return
	}

	// Sinks: make size/cap arguments and io.CopyN's limit.
	if builtinName(info, call) == "make" && len(call.Args) >= 2 {
		for _, arg := range call.Args[1:] {
			if t, rel, tainted := c.taintOf(d, arg, st, depth); tainted && !t.checked && report != nil {
				report(call.Pos(), t, rel, short(types.ExprString(call))+" at "+summary.FormatPos(fset, call.Pos()), nil)
			}
		}
		return
	}
	if astq.IsPkgFunc(info, call, "io", "CopyN") && len(call.Args) == 3 {
		if t, rel, tainted := c.taintOf(d, call.Args[2], st, depth); tainted && !t.checked && report != nil {
			report(call.Pos(), t, rel, "io.CopyN limit at "+summary.FormatPos(fset, call.Pos()), nil)
		}
		return
	}

	// Summarised callees: parameter sinks and the validator heuristic.
	callee := astq.CalleeFunc(info, call)
	if callee == nil {
		return
	}
	cd, ok := c.store.Resolve(callee)
	if !ok {
		return
	}
	sum := c.summarize(cd, depth+1)
	sig, _ := callee.Type().(*types.Signature)
	for i, arg := range call.Args {
		if sig != nil && (sig.Variadic() && i >= sig.Params().Len()-1) {
			break // variadic tail: no per-parameter summary
		}
		t, argRel, tainted := c.taintOf(d, arg, st, depth)
		if !tainted {
			continue
		}
		argKey, keyed := keyFor(info, arg)
		if !t.checked && report != nil {
			step := callee.Name() + " (" + summary.FormatPos(fset, call.Pos()) + ")"
			for _, sk := range sum.paramSinks[i] {
				// The sink consumes a specific field of the parameter; if
				// the caller already bounded that field, the obligation is
				// discharged even though the root stays tainted.
				if sk.path != "" && keyed {
					if t2, _, found := lookupKey(st, argKey+sk.path); found && t2.checked {
						continue
					}
				}
				report(call.Pos(), t, argRel+sk.path, sk.desc, append([]string{step}, sk.steps...))
			}
		}
		if sum.checksParam[i] && keyed {
			t.checked = true
			st[argKey] = t
		}
	}
}

// assign propagates taint through 1:1 assignments, clears it on untainted
// overwrites, and adopts tainted returns from summarised calls.
func (c *checker) assign(d summary.Fn, a *ast.AssignStmt, st state, depth int) {
	info := d.Pkg.Info
	if len(a.Lhs) == len(a.Rhs) {
		for i, lhs := range a.Lhs {
			key, ok := keyFor(info, lhs)
			if !ok {
				continue
			}
			if call, isCall := ast.Unparen(a.Rhs[i]).(*ast.CallExpr); isCall {
				if rt := c.callReturnTaint(d, call, depth); rt != nil {
					c.adoptReturn(st, key, rt)
					continue
				}
			}
			if t, tainted := c.exprTaint(d, a.Rhs[i], st, depth); tainted {
				st[key] = t
			} else {
				c.clear(st, key)
			}
		}
		return
	}
	// Multi-value from one call: a tainted return taints every non-error
	// result; otherwise results are cleared.
	if len(a.Rhs) != 1 {
		return
	}
	call, ok := ast.Unparen(a.Rhs[0]).(*ast.CallExpr)
	if !ok {
		return
	}
	rt := c.callReturnTaint(d, call, depth)
	for _, lhs := range a.Lhs {
		key, ok := keyFor(info, lhs)
		if !ok {
			continue
		}
		if rt != nil && !isErrorExpr(info, lhs) {
			c.adoptReturn(st, key, rt)
		} else {
			c.clear(st, key)
		}
	}
}

// adoptReturn installs a summarised tainted return under key: the root is
// hot, but every field path the callee validated arrives pre-checked.
func (c *checker) adoptReturn(st state, key string, rt *retTaint) {
	st[key] = taint{origin: -1, src: rt.src}
	for p := range rt.checkedPaths {
		st[key+p] = taint{origin: -1, src: rt.src, checked: true}
	}
}

// clear removes key's taint: delete an exact entry, and shadow a tainted
// ancestor (whole-struct taint) with a checked entry so the path reads
// safe from here on.
func (c *checker) clear(st state, key string) {
	if t, _, ok := lookupKey(st, key); ok {
		t.checked = true
		st[key] = t
		return
	}
	delete(st, key)
}

// rangeStmt taints the iteration variables when ranging over a tainted
// container (decoded header slices: every element is untrusted).
func (c *checker) rangeStmt(d summary.Fn, r *ast.RangeStmt, st state) {
	info := d.Pkg.Info
	t, tainted := c.exprTaint(d, r.X, st, 0)
	if !tainted {
		return
	}
	for _, v := range []ast.Expr{r.Key, r.Value} {
		if v == nil {
			continue
		}
		if key, ok := keyFor(info, v); ok {
			st[key] = t
		}
	}
}

// markChecked records every currently-tainted key mentioned on either
// side of a comparison as checked. Only maximal keyable expressions are
// marked: `hdr.K > max` checks hdr.K, not the whole hdr (hdr.N must stay
// hot).
func (c *checker) markChecked(d summary.Fn, cmp *ast.BinaryExpr, st state) {
	info := d.Pkg.Info
	for _, side := range []ast.Expr{cmp.X, cmp.Y} {
		ast.Inspect(side, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			e, ok := n.(ast.Expr)
			if !ok {
				return true
			}
			key, ok := keyFor(info, e)
			if !ok {
				return true
			}
			if t, _, found := c.lookup(d, e, key, st); found {
				t.checked = true
				st[key] = t
			}
			return false // maximal expression handled; skip its parts
		})
	}
}

// taintOf evaluates e's taint for a sink or call argument. For keyable
// expressions it also reports the path of e relative to the state entry
// that supplied the taint (e.g. looking up hdr.Shards against a
// whole-struct hdr entry yields ".Shards"), which parameter-sink
// summaries use to name the field they consume.
func (c *checker) taintOf(d summary.Fn, e ast.Expr, st state, depth int) (taint, string, bool) {
	if key, ok := keyFor(d.Pkg.Info, ast.Unparen(e)); ok {
		t, matched, found := c.lookup(d, e, key, st)
		if !found {
			return taint{}, "", false
		}
		return t, key[len(matched):], true
	}
	t, tainted := c.exprTaint(d, e, st, depth)
	return t, "", tainted
}

// exprTaint evaluates e's taint under st: identifiers and paths look up
// the state (and the ContentLength ambient source), arithmetic and
// conversions propagate operand taint, len/cap launder it, calls consult
// the callee's return summary.
func (c *checker) exprTaint(d summary.Fn, e ast.Expr, st state, depth int) (taint, bool) {
	info := d.Pkg.Info
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
		if key, ok := keyFor(info, e); ok {
			t, _, found := c.lookup(d, e, key, st)
			return t, found
		}
	case *ast.BinaryExpr:
		if isComparison(x.Op) || x.Op == token.LAND || x.Op == token.LOR {
			return taint{}, false // boolean results never size anything
		}
		tx, okx := c.exprTaint(d, x.X, st, depth)
		ty, oky := c.exprTaint(d, x.Y, st, depth)
		switch {
		case okx && oky:
			tx.checked = tx.checked && ty.checked
			return tx, true
		case okx:
			return tx, true
		case oky:
			return ty, true
		}
	case *ast.UnaryExpr:
		return c.exprTaint(d, x.X, st, depth)
	case *ast.CallExpr:
		switch builtinName(info, x) {
		case "len", "cap":
			return taint{}, false // measured from real data: trusted
		}
		if tv, ok := info.Types[ast.Unparen(x.Fun)]; ok && tv.IsType() && len(x.Args) == 1 {
			return c.exprTaint(d, x.Args[0], st, depth) // conversion keeps taint
		}
		if rt := c.callReturnTaint(d, x, depth); rt != nil {
			return taint{origin: -1, src: rt.src}, true
		}
	}
	return taint{}, false
}

// callReturnTaint returns the return-taint summary when call's callee is
// summarised as returning decoded data, or nil.
func (c *checker) callReturnTaint(d summary.Fn, call *ast.CallExpr, depth int) *retTaint {
	callee := astq.CalleeFunc(d.Pkg.Info, call)
	if callee == nil {
		return nil
	}
	cd, ok := c.store.Resolve(callee)
	if !ok {
		return nil
	}
	sum := c.summarize(cd, depth+1)
	if sum.taintedReturn == nil {
		return nil
	}
	return &retTaint{
		src:          sum.taintedReturn.src + " (returned by " + callee.Name() + ")",
		checkedPaths: sum.taintedReturn.checkedPaths,
	}
}

// lookup resolves e's taint: an exact or ancestor state entry (whole-
// object taint from a struct decode), or the ambient http.Request
// ContentLength source. The matched entry key is returned so callers can
// compute the relative field path. A checked entry still returns found
// with checked set.
func (c *checker) lookup(d summary.Fn, e ast.Expr, key string, st state) (taint, string, bool) {
	if t, matched, ok := lookupKey(st, key); ok {
		return t, matched, true
	}
	if isContentLength(d.Pkg.Info, e) {
		return taint{origin: -1, src: "http.Request.ContentLength"}, key, true
	}
	return taint{}, "", false
}

// lookupKey finds the exact entry for key, else the nearest ancestor
// entry (path prefixes at '.'/'[' boundaries), returning the matched key.
func lookupKey(st state, key string) (taint, string, bool) {
	if t, ok := st[key]; ok {
		return t, key, true
	}
	for i := len(key) - 1; i > 0; i-- {
		if key[i] != '.' && key[i] != '[' {
			continue
		}
		if t, ok := st[key[:i]]; ok {
			return t, key[:i], true
		}
	}
	return taint{}, "", false
}

// summarize computes (or recalls) the bottom-up summary of a resolved
// function: seed its parameters as tainted, solve the same fixpoint, and
// record which parameters reach sinks, which get compared, and whether
// the return value carries decode taint.
func (c *checker) summarize(d summary.Fn, depth int) fnSummary {
	if v, ok := c.memo.Get(d.Func); ok {
		return v.(fnSummary)
	}
	sum := fnSummary{paramSinks: map[int][]sinkDesc{}, checksParam: map[int]bool{}}
	key := d.Func.FullName()
	if depth > maxCallDeep || c.visiting[key] {
		return sum
	}
	c.visiting[key] = true
	defer delete(c.visiting, key)

	info := d.Pkg.Info
	entry := state{}
	params := map[string]int{}
	if sig, ok := d.Func.Type().(*types.Signature); ok {
		for i := 0; i < sig.Params().Len(); i++ {
			p := sig.Params().At(i)
			if p.Name() == "" || p.Name() == "_" || !sizeable(p.Type()) {
				continue
			}
			k := objKey(p)
			params[k] = i
			entry[k] = taint{origin: i, src: "parameter " + p.Name()}
		}
	}

	fc := newFuncCtx(d)
	g := cfg.Build(d.Pkg.Fset, d.Decl.Body)
	res := dataflow.Forward[state](g, lattice{}, entry, func(b *cfg.Block, in state) state {
		return c.interpret(fc, b, in, depth, nil)
	})

	seen := map[string]bool{}
	for _, b := range g.Blocks {
		in := res.In[b]
		// Validator heuristic: a parameter checked anywhere in the body.
		for k, i := range params {
			if t, ok := in[k]; ok && t.checked {
				sum.checksParam[i] = true
			}
		}
		c.interpret(fc, b, in, depth, func(pos token.Pos, t taint, path, desc string, steps []string) {
			if t.origin < 0 {
				return // external taint reports in the declaring package's own pass
			}
			k := strconv.Itoa(t.origin) + "|" + desc
			if seen[k] || len(sum.paramSinks[t.origin]) >= 4 {
				return
			}
			seen[k] = true
			sum.paramSinks[t.origin] = append(sum.paramSinks[t.origin],
				sinkDesc{desc: desc, path: path, steps: steps})
		})
		// Tainted returns: a non-error result carrying decode taint on a
		// success path, with the field paths already validated.
		for _, n := range b.Nodes {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok || failurePath(info, ret) {
				continue
			}
			out := c.interpret(fc, b, in, depth, nil) // state at block end ≈ at the return
			for _, r := range ret.Results {
				if isErrorExpr(info, r) {
					continue
				}
				t, tainted := c.exprTaint(d, r, out, depth)
				if !tainted || t.origin >= 0 || t.checked {
					continue
				}
				rt := &retTaint{src: t.src, checkedPaths: map[string]bool{}}
				if rkey, ok := keyFor(info, r); ok {
					for k, kt := range out {
						if kt.checked && len(k) > len(rkey) && strings.HasPrefix(k, rkey) {
							rt.checkedPaths[k[len(rkey):]] = true
						}
					}
				}
				// Multiple success returns: only paths validated on every
				// one of them stay checked for the caller.
				if sum.taintedReturn == nil {
					sum.taintedReturn = rt
				} else {
					for p := range sum.taintedReturn.checkedPaths {
						if !rt.checkedPaths[p] {
							delete(sum.taintedReturn.checkedPaths, p)
						}
					}
				}
			}
		}
	}
	c.memo.Set(d.Func, sum)
	return sum
}

// failurePath reports whether ret is an error-path return: some
// error-typed result is a call (fmt.Errorf and friends wrap on the spot).
// Such returns hand the caller a non-nil error, so their (partially
// validated) values never flow onward.
func failurePath(info *types.Info, ret *ast.ReturnStmt) bool {
	for _, r := range ret.Results {
		if !isErrorExpr(info, r) {
			continue
		}
		if _, ok := ast.Unparen(r).(*ast.CallExpr); ok {
			return true
		}
	}
	return false
}

// --- sources and small helpers ---

// sourceCall recognises the decode calls that taint their pointer
// argument, returning a source label and the pointer expression.
func sourceCall(info *types.Info, call *ast.CallExpr) (string, ast.Expr) {
	if astq.IsPkgFunc(info, call, "encoding/binary", "Read") && len(call.Args) == 3 {
		return "binary.Read", call.Args[2]
	}
	if astq.IsPkgFunc(info, call, "encoding/json", "Unmarshal") && len(call.Args) == 2 {
		return "json.Unmarshal", call.Args[1]
	}
	if fn := astq.CalleeFunc(info, call); fn != nil && fn.Name() == "Decode" && len(call.Args) == 1 {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			if named := astq.NamedOrPointee(sig.Recv().Type()); named != nil && named.Obj().Pkg() != nil {
				switch named.Obj().Pkg().Path() + "." + named.Obj().Name() {
				case "encoding/gob.Decoder":
					return "gob decode", call.Args[0]
				case "encoding/json.Decoder":
					return "json decode", call.Args[0]
				}
			}
		}
	}
	return "", nil
}

// derefTarget unwraps &x to x, so the taint key lands on the decoded
// object rather than the temporary pointer.
func derefTarget(e ast.Expr) ast.Expr {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.AND {
		return u.X
	}
	return e
}

// keyFor builds the (root object, field path) key of an lvalue-ish
// expression, or fails for anything unkeyable (calls, literals, maps
// through arbitrary expressions).
func keyFor(info *types.Info, e ast.Expr) (string, bool) {
	path := ""
	for steps := 0; steps < maxPathLen; steps++ {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if v, ok := obj.(*types.Var); ok {
				return objKey(v) + path, true
			}
			return "", false
		case *ast.SelectorExpr:
			path = "." + x.Sel.Name + path
			e = x.X
		case *ast.IndexExpr:
			path = "[]" + path
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
	return "", false
}

// objKey identifies a variable across the function: its declaration
// position is unique within the package.
func objKey(v *types.Var) string {
	return v.Name() + "@" + strconv.Itoa(int(v.Pos()))
}

// sizeable reports whether t could flow into a size: integers, and the
// structs/slices/pointers that carry decoded integer fields.
func sizeable(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsInteger != 0
	case *types.Struct, *types.Slice, *types.Array, *types.Pointer:
		return true
	}
	return false
}

func isComparison(op token.Token) bool {
	switch op {
	case token.EQL, token.NEQ, token.LSS, token.LEQ, token.GTR, token.GEQ:
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

// isContentLength matches req.ContentLength on a *net/http.Request.
func isContentLength(info *types.Info, e ast.Expr) bool {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "ContentLength" {
		return false
	}
	tv, ok := info.Types[sel.X]
	if !ok || tv.Type == nil {
		return false
	}
	named := astq.NamedOrPointee(tv.Type)
	return named != nil && named.Obj().Pkg() != nil &&
		named.Obj().Pkg().Path() == "net/http" && named.Obj().Name() == "Request"
}

func isErrorExpr(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		// Defs-only idents (":=" results) carry their type on the object.
		if id, okId := ast.Unparen(e).(*ast.Ident); okId {
			if obj := info.Defs[id]; obj != nil {
				return isErrorType(obj.Type())
			}
		}
		return false
	}
	return isErrorType(tv.Type)
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Pkg() == nil && named.Obj().Name() == "error"
}

func short(s string) string {
	if len(s) > 60 {
		return s[:57] + "..."
	}
	return s
}
