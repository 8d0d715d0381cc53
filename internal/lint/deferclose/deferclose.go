// Package deferclose checks release on every path: a resource acquired
// from os.Open/Create/OpenFile, net.Listen/Dial, or a pool Get must be
// released on every path from the acquire to a return — by a (possibly
// deferred) Close, a pool Put, being returned to the caller, or being
// handed to another owner. Paths taken only when the acquire's error
// result is non-nil are exempt (there is no resource to release), as are
// resources captured by closures or go statements (ownership escapes the
// straight-line analysis).
//
// Functions too branchy to enumerate within the dataflow path budget are
// skipped entirely rather than reported on partial evidence.
package deferclose

import (
	"go/ast"
	"go/token"
	"go/types"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/astq"
	"setlearn/internal/lint/cfg"
	"setlearn/internal/lint/dataflow"
)

var Analyzer = &analysis.Analyzer{
	Name: "deferclose",
	Doc: "resources from os.Open/net.Listen/pool Get must be released on " +
		"every path (defer Close/Put, return, or hand-off); an uncovered " +
		"early return leaks the handle or pooled object",
	Scope: []string{
		"setlearn/internal/server",
		"setlearn/internal/shard",
		"setlearn/internal/hybrid",
		"setlearn/internal/deepsets",
		"setlearn/internal/sets",
		"setlearn/internal/core",
		"setlearn/cmd",
		"setlearn/internal/lint/testdata/seedmod",
	},
	Run: run,
}

func run(pass *analysis.Pass) error {
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Body != nil {
					checkFn(pass, n, n.Body)
				}
			case *ast.FuncLit:
				checkFn(pass, n, n.Body)
			}
			return true
		})
	}
	return nil
}

// acquire is one resource-producing assignment.
type acquire struct {
	src    string       // "os.Open", "net.Listen", "p.pool.Get", ...
	pooled bool         // release is Put rather than Close
	vobj   types.Object // the resource variable
	vname  string
	errObj types.Object // the paired error variable, if any
	block  *cfg.Block
	node   int // index of the acquiring node within block
	pos    token.Pos
}

func checkFn(pass *analysis.Pass, fn ast.Node, body *ast.BlockStmt) {
	g := pass.CFG(fn)
	if g == nil {
		return
	}
	info := pass.TypesInfo

	var acquires []acquire
	for _, b := range g.Blocks {
		for i, n := range b.Nodes {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			rhs := ast.Unparen(as.Rhs[0])
			if ta, isTA := rhs.(*ast.TypeAssertExpr); isTA {
				rhs = ast.Unparen(ta.X) // pool.Get().(*T)
			}
			call, ok := rhs.(*ast.CallExpr)
			if !ok {
				continue
			}
			src, pooled, ok := acquireCall(info, call)
			if !ok || len(as.Lhs) == 0 {
				continue
			}
			vid, ok := ast.Unparen(as.Lhs[0]).(*ast.Ident)
			if !ok || vid.Name == "_" {
				continue
			}
			vobj := info.ObjectOf(vid)
			if vobj == nil {
				continue
			}
			a := acquire{src: src, pooled: pooled, vobj: vobj, vname: vid.Name, block: b, node: i, pos: as.Pos()}
			if len(as.Lhs) > 1 {
				if eid, ok := ast.Unparen(as.Lhs[1]).(*ast.Ident); ok && eid.Name != "_" {
					a.errObj = info.ObjectOf(eid)
				}
			}
			acquires = append(acquires, a)
		}
	}
	if len(acquires) == 0 {
		return
	}

	for _, a := range acquires {
		if escapes(info, body, a.vobj) {
			continue
		}
		checkAcquire(pass, g, a)
	}
}

// acquireCall classifies a call as resource-producing.
func acquireCall(info *types.Info, call *ast.CallExpr) (src string, pooled bool, ok bool) {
	for _, name := range [...]string{"Open", "Create", "OpenFile"} {
		if astq.IsPkgFunc(info, call, "os", name) {
			return "os." + name, false, true
		}
	}
	for _, name := range [...]string{"Listen", "ListenTCP", "ListenUDP", "ListenPacket", "Dial", "DialTimeout"} {
		if astq.IsPkgFunc(info, call, "net", name) {
			return "net." + name, false, true
		}
	}
	if fn := astq.CalleeFunc(info, call); fn != nil && fn.Name() == "Get" && astq.PoolMethod(fn) {
		return types.ExprString(call.Fun), true, true
	}
	return "", false, false
}

// escapes reports whether the resource variable is captured by any
// function literal or passed in a go statement: ownership leaves the
// path-coverage analysis.
func escapes(info *types.Info, body *ast.BlockStmt, vobj types.Object) bool {
	found := false
	astq.Inspect(body, func(n ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		id, isID := n.(*ast.Ident)
		if !isID || info.Uses[id] != vobj {
			return true
		}
		for _, anc := range stack {
			switch anc.(type) {
			case *ast.FuncLit, *ast.GoStmt:
				found = true
				return false
			}
		}
		return true
	})
	return found
}

func checkAcquire(pass *analysis.Pass, g *cfg.Graph, a acquire) {
	info := pass.TypesInfo
	violated := false
	complete := dataflow.Paths(g, a.block, g.Exit, dataflow.Limit(g), func(path []*cfg.Block) bool {
		if pathCovered(info, path, a) {
			return true
		}
		violated = true
		return false // first uncovered path is enough
	})
	if !complete && !violated {
		return // too branchy to enumerate honestly; do not report
	}
	if violated {
		release := "defer " + a.vname + ".Close() right after the acquire"
		if a.pooled {
			release = "defer the Put right after the Get"
		}
		pass.Reportf(a.pos, "%s from %s is not released on every path; an early return leaks it — %s",
			a.vname, a.src, release)
	}
}

// pathCovered walks one acquire→exit path and reports whether the
// resource is released, handed off, or the path is error-exempt.
func pathCovered(info *types.Info, path []*cfg.Block, a acquire) bool {
	for pi, b := range path {
		start := 0
		if pi == 0 {
			start = a.node + 1
		}
		for _, n := range b.Nodes[start:] {
			if covers(info, n, a) {
				return true
			}
		}
		// Transition exemption: a branch taken only when the acquire's
		// error is non-nil has no resource to release.
		if pi+1 < len(path) && a.errObj != nil && errExempt(info, b, path[pi+1], a.errObj) {
			return true
		}
	}
	return false
}

// errExempt reports whether taking the b→next edge implies the acquire
// failed: the condition is `err != nil` and next is the true successor,
// or `err == nil` and next is the false successor.
func errExempt(info *types.Info, b, next *cfg.Block, errObj types.Object) bool {
	cond, ok := ast.Unparen(b.Cond).(*ast.BinaryExpr)
	if !ok || len(b.Succs) != 2 {
		return false
	}
	if cond.Op != token.NEQ && cond.Op != token.EQL {
		return false
	}
	matches := func(e ast.Expr) bool {
		id, isID := ast.Unparen(e).(*ast.Ident)
		return isID && info.ObjectOf(id) == errObj
	}
	isNil := func(e ast.Expr) bool {
		id, isID := ast.Unparen(e).(*ast.Ident)
		return isID && id.Name == "nil"
	}
	if !(matches(cond.X) && isNil(cond.Y)) && !(matches(cond.Y) && isNil(cond.X)) {
		return false
	}
	if cond.Op == token.NEQ {
		return next == b.Succs[0] // err != nil, true edge
	}
	return next == b.Succs[1] // err == nil, false edge
}

// covers reports whether CFG node n releases, aliases, reassigns, or
// returns the resource.
func covers(info *types.Info, n ast.Node, a acquire) bool {
	switch n := n.(type) {
	case *ast.ReturnStmt:
		for _, r := range n.Results {
			if isObj(info, r, a.vobj) {
				return true
			}
		}
		return false
	case *ast.AssignStmt:
		for _, l := range n.Lhs {
			if isObj(info, l, a.vobj) {
				return true // reassigned: tracking stops
			}
		}
		for _, r := range n.Rhs {
			if isObj(info, r, a.vobj) {
				return true // aliased: the alias owns the release
			}
		}
	}
	found := false
	astq.Inspect(n, func(m ast.Node, stack []ast.Node) bool {
		if found {
			return false
		}
		if lit, isLit := m.(*ast.FuncLit); isLit {
			return astq.DeferredLit(lit, stack)
		}
		call, isCall := m.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if releasesObj(info, call, a) {
			found = true
		}
		return true
	})
	return found
}

// releasesObj matches v.Close() or pool.Put(v).
func releasesObj(info *types.Info, call *ast.CallExpr, a acquire) bool {
	if a.pooled {
		fn := astq.CalleeFunc(info, call)
		if fn != nil && fn.Name() == "Put" && astq.PoolMethod(fn) &&
			len(call.Args) == 1 && isObj(info, call.Args[0], a.vobj) {
			return true
		}
		return false
	}
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	return isSel && sel.Sel.Name == "Close" && isObj(info, sel.X, a.vobj)
}

func isObj(info *types.Info, e ast.Expr, obj types.Object) bool {
	id, isID := ast.Unparen(e).(*ast.Ident)
	return isID && info.ObjectOf(id) == obj
}
