// The summary-framework client glue: NewResolver turns the run-wide
// summary.Store into a lockflow.Resolver, so lock-delta summaries are
// computed once per function per lint run (memo domain "lockdelta") and
// shared by every package lockbalance visits. Helpers are summarised
// lazily, on first call-site demand, following module-local callees
// across package boundaries through the store's source loader; a
// visiting set cuts recursion (recursive helpers stay unsummarised).
//
// Key substitution bridges namespaces at the call site: a helper's
// receiver-rooted key ("c.mu" inside func (c *Container) lockAll) is
// rewritten to the caller's receiver text ("box.mu" for box.lockAll()),
// and a parameter-rooted key ("mu" inside func lockBoth(mu *sync.Mutex))
// becomes the argument's text with any leading & stripped ("s.mu" for
// lockBoth(&s.mu)). Keys rooted elsewhere — package-level mutexes — carry
// over verbatim within the same package and invalidate the substitution
// across packages, where the caller's key namespace cannot name them.
package lockflow

import (
	"go/ast"
	"go/types"
	"strings"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/astq"
	"setlearn/internal/lint/cfg"
	"setlearn/internal/lint/summary"
)

// NewResolver returns a Resolver for pass's package backed by the
// run-wide summary store. Without a LoadPackage hook it still summarises
// same-package helpers; cross-package calls degrade to lock-neutral.
func NewResolver(pass *analysis.Pass) Resolver {
	st := summary.For(pass)
	r := &resolver{
		store:    st,
		memo:     st.Memo("lockdelta"),
		visiting: make(map[string]bool),
	}
	from := pass.PackageInfo()
	return func(call *ast.CallExpr) (Summary, bool) {
		return r.atCall(from, call)
	}
}

type resolver struct {
	store    *summary.Store
	memo     *summary.Memo
	visiting map[string]bool
}

// deltaEntry is the memoised (summary, ok) pair; the zero value records a
// function known to be unsummarisable.
type deltaEntry struct {
	sum Summary
	ok  bool
}

func (r *resolver) atCall(from *analysis.PackageInfo, call *ast.CallExpr) (Summary, bool) {
	fn := astq.CalleeFunc(from.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return nil, false
	}
	if path := fn.Pkg().Path(); path != from.Path && !moduleLocal(path) {
		return nil, false
	}
	sum, ok := r.forFunc(fn)
	if !ok || len(sum) == 0 {
		return nil, ok
	}
	d, resolved := r.store.Resolve(fn) // cache hit: forFunc resolved it
	if !resolved {
		return nil, false
	}
	return substitute(sum, d, call, from)
}

func (r *resolver) forFunc(fn *types.Func) (Summary, bool) {
	key := fn.FullName()
	if v, ok := r.memo.Get(fn); ok {
		e := v.(deltaEntry)
		return e.sum, e.ok
	}
	if r.visiting[key] {
		// Recursion: no summary for the cycle member at this point in the
		// walk; not memoised, so a later non-recursive query may succeed.
		return nil, false
	}
	d, ok := r.store.Resolve(fn)
	if !ok {
		r.memo.Set(fn, deltaEntry{})
		return nil, false
	}
	r.visiting[key] = true
	defer delete(r.visiting, key)
	g := cfg.Build(d.Pkg.Fset, d.Decl.Body)
	sum, sok := Summarize(d.Pkg.Info, g, func(call *ast.CallExpr) (Summary, bool) {
		return r.atCall(d.Pkg, call)
	})
	if !sok {
		sum = nil
	}
	r.memo.Set(fn, deltaEntry{sum: sum, ok: sok})
	return sum, sok
}

func moduleLocal(path string) bool {
	return path == "setlearn" || strings.HasPrefix(path, "setlearn/")
}

// substitute rewrites sum's keys from the helper's namespace into the
// caller's. ok is false when any net-effect key cannot be named at the
// call site (method expressions, out-of-range arguments, cross-package
// globals) — the whole call then stays lock-neutral rather than applying
// a half-translated summary.
func substitute(sum Summary, d summary.Fn, call *ast.CallExpr, from *analysis.PackageInfo) (Summary, bool) {
	recvName := ""
	if rl := d.Decl.Recv; rl != nil && len(rl.List) == 1 && len(rl.List[0].Names) == 1 {
		recvName = rl.List[0].Names[0].Name
	}
	recvText := ""
	if sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr); isSel {
		if s, isMethod := from.Info.Selections[sel]; isMethod && s.Kind() == types.MethodVal {
			recvText = types.ExprString(sel.X)
		}
	}
	params := map[string]int{}
	idx := 0
	for _, f := range d.Decl.Type.Params.List {
		if len(f.Names) == 0 {
			idx++
			continue
		}
		for _, name := range f.Names {
			params[name.Name] = idx
			idx++
		}
	}
	out := make(Summary, len(sum))
	for k, dl := range sum {
		root, rest := splitKey(k)
		if recvName != "" && root == recvName {
			if recvText == "" {
				return nil, false
			}
			out[recvText+rest] = dl
			continue
		}
		if i, isParam := params[root]; isParam {
			if i >= len(call.Args) {
				return nil, false
			}
			arg := types.ExprString(ast.Unparen(call.Args[i]))
			arg = strings.TrimPrefix(arg, "&")
			out[arg+rest] = dl
			continue
		}
		// Package-level (or otherwise unrooted) key: meaningful only when
		// caller and helper share a namespace.
		if d.Pkg.Path != from.Path {
			return nil, false
		}
		out[k] = dl
	}
	return out, true
}

// splitKey splits a lock key at its root identifier: "c.mu" → ("c",
// ".mu"), "shards[i].mu" → ("shards", "[i].mu"), "mu" → ("mu", "").
func splitKey(k string) (root, rest string) {
	for i := 0; i < len(k); i++ {
		if k[i] == '.' || k[i] == '[' {
			return k[:i], k[i:]
		}
	}
	return k, ""
}
