// Package astq holds the small AST/type queries shared by the setlearnlint
// analyzers: static callee resolution, pool-method and named-type
// matching, and an ancestor-tracking walker (the stdlib ast.Inspect does
// not expose the path to the root, which deferclose needs to see enclosing
// defer statements).
package astq

import (
	"go/ast"
	"go/types"
	"strings"
)

// CalleeFunc returns the *types.Func a call statically resolves to, or nil
// for calls through function values, conversions, and built-ins.
func CalleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// IsPkgFunc reports whether call is a call to pkgPath.name (a package-level
// function, not a method).
func IsPkgFunc(info *types.Info, call *ast.CallExpr, pkgPath, name string) bool {
	fn := CalleeFunc(info, call)
	return fn != nil &&
		fn.Pkg() != nil && fn.Pkg().Path() == pkgPath &&
		fn.Name() == name &&
		fn.Type().(*types.Signature).Recv() == nil
}

// Inspect walks root like ast.Inspect but passes the stack of ancestors
// (outermost first, not including n itself) to fn. Returning false prunes
// the subtree.
func Inspect(root ast.Node, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	ast.Inspect(root, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		descend := fn(n, stack)
		if descend {
			stack = append(stack, n)
			return true
		}
		return false
	})
}

// DeferredLit reports whether lit is the function of a defer statement's
// call (defer func(){...}()), given lit's ancestor stack from Inspect.
// The stack ends [..., DeferStmt, CallExpr] for such literals.
func DeferredLit(lit *ast.FuncLit, stack []ast.Node) bool {
	if len(stack) < 2 {
		return false
	}
	call, ok := stack[len(stack)-1].(*ast.CallExpr)
	if !ok || ast.Unparen(call.Fun) != ast.Expr(lit) {
		return false
	}
	d, ok := stack[len(stack)-2].(*ast.DeferStmt)
	return ok && d.Call == call
}

// PoolMethod reports whether fn is a Get/Put method whose receiver is
// sync.Pool or a named type ending in "Pool"; deferclose checks that a
// Get's release covers every path.
func PoolMethod(fn *types.Func) bool {
	if fn.Name() != "Get" && fn.Name() != "Put" {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	named := NamedOrPointee(recv.Type())
	if named == nil {
		return false
	}
	obj := named.Obj()
	if obj.Pkg() != nil && obj.Pkg().Path() == "sync" && obj.Name() == "Pool" {
		return true
	}
	return strings.HasSuffix(obj.Name(), "Pool")
}

// NamedOrPointee unwraps pointers and returns the named type beneath, if
// any.
func NamedOrPointee(t types.Type) *types.Named {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	return n
}
