// Package lint assembles setlearn's custom analyzers into one suite and
// drives them over the module. cmd/setlearnlint is a thin shell around
// this package; keeping the driver here makes the whole pipeline —
// pattern expansion, type-checking, scope filtering, suppression handling,
// diagnostic formatting — testable with plain go test.
package lint

import (
	"fmt"
	"io"
	"path/filepath"
	"sort"
	"strings"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/binioerr"
	"setlearn/internal/lint/deferclose"
	"setlearn/internal/lint/floateq"
	"setlearn/internal/lint/globalrand"
	"setlearn/internal/lint/goroleak"
	"setlearn/internal/lint/load"
	"setlearn/internal/lint/lockbalance"
	"setlearn/internal/lint/lockescape"
	"setlearn/internal/lint/poolpair"
	"setlearn/internal/lint/pubfreeze"
	"setlearn/internal/lint/trustlen"
	"setlearn/internal/lint/waitgroup"
)

// Analyzers is the full setlearnlint suite, in stable order.
var Analyzers = []*analysis.Analyzer{
	binioerr.Analyzer,
	deferclose.Analyzer,
	floateq.Analyzer,
	globalrand.Analyzer,
	goroleak.Analyzer,
	lockbalance.Analyzer,
	lockescape.Analyzer,
	poolpair.Analyzer,
	pubfreeze.Analyzer,
	trustlen.Analyzer,
	waitgroup.Analyzer,
}

// ByName returns the named analyzer, or nil.
func ByName(name string) *analysis.Analyzer {
	for _, a := range Analyzers {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// Result summarises one driver run.
type Result struct {
	Diagnostics int // findings reported (after suppression)
	Errors      int // parse/type errors encountered
	Packages    int // packages analysed
}

// Run lints the packages matching patterns (relative to dir) with the
// given analyzers (all of them when analyzers is nil), writing
// file:line:col-style findings to w. Scope restrictions apply: a scoped
// analyzer only sees its packages.
func Run(dir string, patterns []string, analyzers []*analysis.Analyzer, w io.Writer) (Result, error) {
	if analyzers == nil {
		analyzers = Analyzers
	}
	var res Result
	loader, err := load.NewLoader(dir)
	if err != nil {
		return res, err
	}
	dirs, err := loader.Expand(patterns)
	if err != nil {
		return res, err
	}

	errf := func(format string, args ...any) {
		res.Errors++
		fmt.Fprintf(w, format+"\n", args...)
	}

	// One Shared cache and one package-load cache per run. The main loop
	// and the interprocedural analyzers' LoadPackage hook share the cache,
	// keyed both by directory (the loop's view) and by import path (the
	// hook's view), so no package is parsed or type-checked twice even when
	// an analyzer pulls in a package the loop will visit later.
	shared := analysis.NewShared()
	type pkgEntry struct {
		pkg *load.Package
		pi  *analysis.PackageInfo
		err error
	}
	byDir := make(map[string]*pkgEntry)
	byPath := make(map[string]*pkgEntry)
	loadDir := func(d string) *pkgEntry {
		if e, ok := byDir[d]; ok {
			return e
		}
		e := &pkgEntry{}
		e.pkg, e.err = loader.LoadDir(d)
		if e.err == nil {
			p := e.pkg
			e.pi = &analysis.PackageInfo{Path: p.Path, Fset: p.Fset, Files: p.Files, Types: p.Types, Info: p.Info}
			byPath[p.Path] = e
		}
		byDir[d] = e
		return e
	}
	loadPkg := func(path string) (*analysis.PackageInfo, error) {
		if e, ok := byPath[path]; ok {
			return e.pi, e.err
		}
		rel, ok := strings.CutPrefix(path, loader.ModulePath+"/")
		if !ok {
			err := fmt.Errorf("lint: %s is not module-local", path)
			byPath[path] = &pkgEntry{err: err}
			return nil, err
		}
		e := loadDir(filepath.Join(loader.ModuleDir, filepath.FromSlash(rel)))
		if e.err != nil {
			byPath[path] = e
		}
		return e.pi, e.err
	}

	for _, d := range dirs {
		e := loadDir(d)
		if e.err != nil {
			errf("%s: %v", d, e.err)
			continue
		}
		pkg := e.pkg
		res.Packages++
		for _, terr := range pkg.TypeErrors {
			errf("%v", terr)
		}
		diags := analyzePackage(pkg, analyzers, shared, loadPkg, errf)
		res.Diagnostics += len(diags)
		for _, diag := range diags {
			pos := pkg.Fset.Position(diag.Pos)
			file := pos.Filename
			if rel, err := filepath.Rel(loader.ModuleDir, file); err == nil {
				file = rel
			}
			fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n", file, pos.Line, pos.Column, diag.Message, diag.Analyzer)
		}
	}
	return res, nil
}

func analyzePackage(pkg *load.Package, analyzers []*analysis.Analyzer, shared *analysis.Shared, loadPkg func(string) (*analysis.PackageInfo, error), errf func(string, ...any)) []analysis.Diagnostic {
	var diags []analysis.Diagnostic
	for _, a := range analyzers {
		if !a.InScope(pkg.Path) {
			continue
		}
		pass := analysis.NewPass(a, pkg.Fset, pkg.Files, pkg.Types, pkg.Info, func(d analysis.Diagnostic) {
			diags = append(diags, d)
		})
		pass.Shared = shared
		pass.LoadPackage = loadPkg
		if err := a.Run(pass); err != nil {
			errf("%s: analyzer %s failed: %v", pkg.Path, a.Name, err)
			continue
		}
		pass.ReportBadSuppressions()
	}
	sort.Slice(diags, func(i, j int) bool { return diags[i].Pos < diags[j].Pos })
	return diags
}
