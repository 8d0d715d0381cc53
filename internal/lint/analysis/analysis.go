// Package analysis is a small, dependency-free re-implementation of the
// golang.org/x/tools/go/analysis surface that setlearn's custom analyzers
// are written against. The container this repo builds in has no module
// proxy access, so instead of depending on x/tools the lint suite carries
// its own framework: an Analyzer is a named check, a Pass hands it one
// type-checked package, and diagnostics flow back through Pass.Report with
// //lint:allow suppression applied centrally.
//
// The shape deliberately mirrors x/tools so the analyzers can be ported to
// the real framework by swapping this import if the dependency ever lands.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"

	"setlearn/internal/lint/cfg"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in
	// //lint:allow <name> suppression comments. It must be a valid
	// identifier.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Scope, when non-empty, restricts the packages the *driver* runs this
	// analyzer over: a package is in scope if its import path equals, or is
	// a subpackage of, one of these prefixes. Test harnesses bypass Scope
	// and run the analyzer on whatever package they load.
	Scope []string

	// Run executes the check on one package.
	Run func(*Pass) error
}

// InScope reports whether the analyzer applies to the package with the
// given import path under its Scope restriction.
func (a *Analyzer) InScope(pkgPath string) bool {
	if len(a.Scope) == 0 {
		return true
	}
	for _, p := range a.Scope {
		if pkgPath == p || strings.HasPrefix(pkgPath, p+"/") {
			return true
		}
	}
	return false
}

// Diagnostic is one finding reported by an analyzer.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string
}

// PackageInfo describes one loaded, type-checked package for the benefit
// of interprocedural analyzers that follow call chains outside the package
// a Pass was created for. It carries exactly the fields a Pass carries for
// its own package.
type PackageInfo struct {
	Path  string // import path
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Shared is a per-run cache shared by every Pass a driver creates in one
// invocation, so interprocedural state (loaded packages, function
// summaries) is computed once per run rather than once per
// (package, analyzer) pair. Safe for concurrent use.
type Shared struct {
	mu sync.Mutex
	m  map[string]any
}

// NewShared returns an empty per-run cache.
func NewShared() *Shared { return &Shared{m: make(map[string]any)} }

// Get returns the value cached under key, calling build to create it on
// first request. build runs with the cache lock held, so it must not call
// back into Get.
func (s *Shared) Get(key string, build func() any) any {
	s.mu.Lock()
	defer s.mu.Unlock()
	if v, ok := s.m[key]; ok {
		return v
	}
	v := build()
	s.m[key] = v
	return v
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info

	// LoadPackage, when set by the driver, resolves a module-local import
	// path to its parsed, type-checked sources so interprocedural analyzers
	// can follow call chains across package boundaries. The single-package
	// test harness leaves it nil, and such analyzers degrade to
	// package-local reasoning.
	LoadPackage func(path string) (*PackageInfo, error)

	// Shared is the per-run cache described above. The single-package test
	// harness leaves it nil; PassShared lazily creates a pass-private cache
	// in that case so analyzers need not nil-check.
	Shared *Shared

	suppress *suppressionIndex
	sink     func(Diagnostic)
	cfgs     map[ast.Node]*cfg.Graph
}

// PassShared returns the pass's run-wide cache, creating a pass-private
// one when the driver did not install any.
func (p *Pass) PassShared() *Shared {
	if p.Shared == nil {
		p.Shared = NewShared()
	}
	return p.Shared
}

// PackageInfo returns the pass's own package in the shape interprocedural
// code uses for every package, local or loaded.
func (p *Pass) PackageInfo() *PackageInfo {
	return &PackageInfo{
		Path:  p.Pkg.Path(),
		Fset:  p.Fset,
		Files: p.Files,
		Types: p.Pkg,
		Info:  p.TypesInfo,
	}
}

// NewPass assembles a Pass. The sink receives every diagnostic that
// survives suppression filtering; malformed suppression comments are
// themselves reported through the sink.
func NewPass(a *Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, sink func(Diagnostic)) *Pass {
	return &Pass{
		Analyzer:  a,
		Fset:      fset,
		Files:     files,
		Pkg:       pkg,
		TypesInfo: info,
		suppress:  buildSuppressionIndex(fset, files),
		sink:      sink,
	}
}

// Reportf reports a diagnostic at pos unless a well-formed
// //lint:allow comment for this analyzer covers that line.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	if p.suppress.allows(p.Analyzer.Name, p.Fset.Position(pos)) {
		return
	}
	p.sink(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// CFG returns the control-flow graph of fn's body, where fn is an
// *ast.FuncDecl or *ast.FuncLit. Graphs are built on first request and
// cached for the life of the Pass, so several analyzers (or several rules
// within one) share construction cost. Returns nil for bodyless
// declarations and other node kinds.
func (p *Pass) CFG(fn ast.Node) *cfg.Graph {
	if g, ok := p.cfgs[fn]; ok {
		return g
	}
	var body *ast.BlockStmt
	switch fn := fn.(type) {
	case *ast.FuncDecl:
		body = fn.Body
	case *ast.FuncLit:
		body = fn.Body
	}
	if body == nil {
		return nil
	}
	g := cfg.Build(p.Fset, body)
	if p.cfgs == nil {
		p.cfgs = make(map[ast.Node]*cfg.Graph)
	}
	p.cfgs[fn] = g
	return g
}

// ReportBadSuppressions emits a diagnostic for every //lint:allow comment
// that names this analyzer but carries no justification. The driver calls
// it once per (package, analyzer) pair so that a bare escape hatch is
// itself a lint failure rather than a silent pass.
func (p *Pass) ReportBadSuppressions() {
	for _, bad := range p.suppress.malformed(p.Analyzer.Name) {
		p.sink(Diagnostic{
			Pos:      bad,
			Message:  "//lint:allow " + p.Analyzer.Name + " needs a justification: write //lint:allow " + p.Analyzer.Name + " -- <why this is safe>",
			Analyzer: p.Analyzer.Name,
		})
	}
}
