// Package load discovers, parses, and type-checks the module's packages
// for the lint suite. It is a minimal substitute for
// golang.org/x/tools/go/packages built on the standard library alone: the
// module layout is walked directly (import path = module path + relative
// directory) and dependencies are resolved through go/importer's source
// importer, which handles both the standard library and module-local
// imports.
package load

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed, type-checked package ready for analysis.
type Package struct {
	Path  string // import path, e.g. setlearn/internal/mat
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	// TypeErrors holds type-checker errors. The analyzers still run on a
	// partially checked package, mirroring go vet's behaviour, but the
	// driver surfaces these so a broken tree cannot lint clean by accident.
	TypeErrors []error
}

// Loader caches the shared importer so stdlib dependencies are
// type-checked once across many target packages.
type Loader struct {
	ModulePath string
	ModuleDir  string

	fset *token.FileSet
	imp  types.Importer
}

// NewLoader reads go.mod in dir (or a parent) to learn the module path.
func NewLoader(dir string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, err
	}
	root, modPath, err := findModule(abs)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	return &Loader{
		ModulePath: modPath,
		ModuleDir:  root,
		fset:       fset,
		imp:        importer.ForCompiler(fset, "source", nil),
	}, nil
}

func findModule(dir string) (root, modPath string, err error) {
	for d := dir; ; d = filepath.Dir(d) {
		data, err := os.ReadFile(filepath.Join(d, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				line = strings.TrimSpace(line)
				if rest, ok := strings.CutPrefix(line, "module"); ok {
					return d, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("load: %s/go.mod has no module directive", d)
		}
		if parent := filepath.Dir(d); parent == d {
			return "", "", fmt.Errorf("load: no go.mod found above %s", dir)
		}
	}
}

// Expand resolves command-line patterns ("./...", "./internal/mat", or
// fully qualified import paths) into package directories, sorted.
func (l *Loader) Expand(patterns []string) ([]string, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if p, ok := strings.CutPrefix(pat, l.ModulePath); ok {
			pat = "." + p
		}
		recursive := false
		if strings.HasSuffix(pat, "/...") {
			recursive = true
			pat = strings.TrimSuffix(pat, "/...")
			if pat == "." || pat == "" {
				pat = "."
			}
		}
		base := filepath.Join(l.ModuleDir, filepath.FromSlash(pat))
		if !recursive {
			if hasGoFiles(base) {
				add(base)
			} else {
				return nil, fmt.Errorf("load: no Go files in %s", pat)
			}
			continue
		}
		err := filepath.WalkDir(base, func(path string, d os.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if !d.IsDir() {
				return nil
			}
			name := d.Name()
			if path != base && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if hasGoFiles(path) {
				add(path)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	sort.Strings(dirs)
	return dirs, nil
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if buildsInto(dir, e) {
			return true
		}
	}
	return false
}

// buildsInto reports whether e is a non-test Go file of dir's package that
// the go command builds for the host's GOOS and GOARCH: file-name suffixes
// and //go:build lines pick one file of each build-constrained pair.
func buildsInto(dir string, e os.DirEntry) bool {
	name := e.Name()
	if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
		return false
	}
	ok, err := build.Default.MatchFile(dir, name)
	return err == nil && ok
}

// LoadDir parses and type-checks the non-test package in dir, as the go
// command builds it for the host. Test files are excluded: the invariants
// the suite enforces govern production code, and test packages lean on the
// same helpers the analyzers whitelist.
func (l *Loader) LoadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range ents {
		if !buildsInto(dir, e) {
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no Go files in %s", dir)
	}
	rel, err := filepath.Rel(l.ModuleDir, dir)
	if err != nil {
		return nil, err
	}
	importPath := l.ModulePath
	if rel != "." {
		importPath = l.ModulePath + "/" + filepath.ToSlash(rel)
	}
	return l.check(importPath, files)
}

// LoadFiles parses and checks an ad-hoc file set as import path pkgPath —
// the entry point the linttest harness uses for testdata packages.
func (l *Loader) LoadFiles(pkgPath string, paths []string) (*Package, error) {
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(l.fset, p, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("load: no files for %s", pkgPath)
	}
	return l.check(pkgPath, files)
}

func (l *Loader) check(importPath string, files []*ast.File) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	pkg := &Package{
		Path:  importPath,
		Fset:  l.fset,
		Files: files,
		Info:  info,
	}
	if len(files) > 0 {
		pkg.Dir = filepath.Dir(l.fset.Position(files[0].Pos()).Filename)
	}
	conf := types.Config{
		Importer: l.imp,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(importPath, l.fset, files, info)
	if err != nil && len(pkg.TypeErrors) == 0 {
		pkg.TypeErrors = append(pkg.TypeErrors, err)
	}
	pkg.Types = tpkg
	return pkg, nil
}
