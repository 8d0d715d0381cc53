// Package summary is the bottom-up function-summary framework behind
// setlearnlint's interprocedural analyzers. A Store lives in the driver's
// per-run Shared cache (like pass.CFG lives on the Pass), so per-function
// facts are computed once per run and reused by every (package, analyzer)
// pair that needs them.
//
// The central primitive is Resolve: given the *types.Func a call site
// statically resolves to, find the function's declaration — loading and
// indexing its package on demand through the driver's Pass.LoadPackage
// hook when the body lives outside the current package. Identity is by
// types.Func.FullName rather than object pointer: the source importer
// type-checks a dependency package independently of the driver's own load
// of that package, so the "same" function is represented by distinct
// objects depending on which side of the import it was seen from.
//
// On top of Resolve the Store offers per-domain memo tables (an analyzer
// keys its summaries by function) and cached per-package suppression
// indexes (so a //lint:allow on a leaf construct is honoured even when the
// diagnostic is reported at a call site in another package).
//
// A pass without a LoadPackage hook (a single-package test harness)
// resolves only functions of packages already registered — in practice the
// current one — and interprocedural analyzers degrade to package-local
// reasoning.
package summary

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"strconv"
	"sync"

	"setlearn/internal/lint/analysis"
)

const sharedKey = "summary.Store"

// Fn is a resolved function: its declaration and the package that holds
// it. Func is the *types.Func of the declaring package's own type-check,
// which may differ (as an object) from the one the caller resolved.
type Fn struct {
	Func *types.Func
	Decl *ast.FuncDecl
	Pkg  *analysis.PackageInfo
}

// Store caches loaded packages, declaration indexes, suppression indexes,
// and analyzer summaries for one driver run.
type Store struct {
	mu   sync.Mutex
	load func(path string) (*analysis.PackageInfo, error)

	pkgs     map[string]*analysis.PackageInfo // by import path
	failed   map[string]error                 // load failures, cached
	decls    map[string]Fn                    // by types.Func FullName
	bodyless map[string]Fn                    // declared without a Go body, by FullName
	suppress map[string]*analysis.Suppressions
	memos    map[string]map[string]any // domain -> FullName -> summary
}

// For returns the run-wide Store for pass, creating it on first use and
// registering the pass's own package either way.
func For(pass *analysis.Pass) *Store {
	s := pass.PassShared().Get(sharedKey, func() any {
		return &Store{
			pkgs:     make(map[string]*analysis.PackageInfo),
			failed:   make(map[string]error),
			decls:    make(map[string]Fn),
			bodyless: make(map[string]Fn),
			suppress: make(map[string]*analysis.Suppressions),
			memos:    make(map[string]map[string]any),
		}
	}).(*Store)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.load == nil {
		s.load = pass.LoadPackage
	}
	s.addPackageLocked(pass.PackageInfo())
	return s
}

func (s *Store) addPackageLocked(pi *analysis.PackageInfo) {
	if pi == nil || pi.Types == nil {
		return
	}
	if _, ok := s.pkgs[pi.Path]; ok {
		return
	}
	s.pkgs[pi.Path] = pi
	for _, f := range pi.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn, ok := pi.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			idx := s.decls
			if fd.Body == nil {
				idx = s.bodyless
			}
			key := fn.FullName()
			if _, dup := idx[key]; !dup {
				idx[key] = Fn{Func: fn, Decl: fd, Pkg: pi}
			}
		}
	}
}

// Resolve locates fn's declaration, loading its package through the
// driver hook when necessary. ok is false for functions without source in
// reach: other modules, the standard library, bodyless declarations, and
// every cross-package function when the driver cannot load source.
func (s *Store) Resolve(fn *types.Func) (Fn, bool) {
	if fn == nil || fn.Pkg() == nil {
		return Fn{}, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.decls[fn.FullName()]; ok {
		return d, true
	}
	path := fn.Pkg().Path()
	if _, loaded := s.pkgs[path]; loaded {
		return Fn{}, false // package known, function bodyless there
	}
	if s.load == nil {
		return Fn{}, false
	}
	if _, failed := s.failed[path]; failed {
		return Fn{}, false
	}
	pi, err := s.load(path)
	if err != nil {
		s.failed[path] = err
		return Fn{}, false
	}
	s.addPackageLocked(pi)
	d, ok := s.decls[fn.FullName()]
	return d, ok
}

// Declared is Resolve that also returns a function declared without a Go
// body (its body is assembly) in a package with source in reach; such an
// Fn's Decl.Body is nil.
func (s *Store) Declared(fn *types.Func) (Fn, bool) {
	if d, ok := s.Resolve(fn); ok || fn == nil {
		return d, ok
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	d, ok := s.bodyless[fn.FullName()]
	return d, ok
}

// Suppressions returns pi's //lint:allow index, building it on first
// request. Interprocedural analyzers consult it for constructs in packages
// other than the reporting one.
func (s *Store) Suppressions(pi *analysis.PackageInfo) *analysis.Suppressions {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sup, ok := s.suppress[pi.Path]; ok {
		return sup
	}
	sup := analysis.BuildSuppressions(pi.Fset, pi.Files)
	s.suppress[pi.Path] = sup
	return sup
}

// Memo is one analyzer's summary table, keyed by function. Concurrent use
// is safe; entries are write-once in practice (bottom-up computation).
type Memo struct {
	s *Store
	m map[string]any
}

// Memo returns the named domain's summary table, shared across passes.
func (s *Store) Memo(domain string) *Memo {
	s.mu.Lock()
	defer s.mu.Unlock()
	m, ok := s.memos[domain]
	if !ok {
		m = make(map[string]any)
		s.memos[domain] = m
	}
	return &Memo{s: s, m: m}
}

// Get returns the summary stored for fn.
func (m *Memo) Get(fn *types.Func) (any, bool) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	v, ok := m.m[fn.FullName()]
	return v, ok
}

// Set stores fn's summary.
func (m *Memo) Set(fn *types.Func, v any) {
	m.s.mu.Lock()
	defer m.s.mu.Unlock()
	m.m[fn.FullName()] = v
}

// FormatPos renders pos compactly for diagnostic messages: the file's last
// two path elements plus the line, e.g. "nn/dense.go:126".
func FormatPos(fset *token.FileSet, pos token.Pos) string {
	p := fset.Position(pos)
	dir, file := filepath.Split(p.Filename)
	short := filepath.Base(filepath.Clean(dir))
	if short != "." && short != string(filepath.Separator) && short != "" {
		file = short + "/" + file
	}
	return file + ":" + strconv.Itoa(p.Line)
}
