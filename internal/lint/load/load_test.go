package load

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestExpandAndLoad(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	if l.ModulePath != "setlearn" {
		t.Fatalf("module path = %q, want setlearn", l.ModulePath)
	}

	dirs, err := l.Expand([]string{"./internal/mat"})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(dirs) != 1 {
		t.Fatalf("Expand(./internal/mat) = %v, want one dir", dirs)
	}

	pkg, err := l.LoadDir(dirs[0])
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if pkg.Path != "setlearn/internal/mat" {
		t.Errorf("import path = %q", pkg.Path)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Errorf("type errors in clean package: %v", pkg.TypeErrors)
	}
	if pkg.Types == nil || pkg.Types.Scope().Lookup("MatVec") == nil {
		t.Error("type info missing MatVec")
	}
}

func TestExpandRecursive(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dirs, err := l.Expand([]string{"./internal/lint/..."})
	if err != nil {
		t.Fatalf("Expand: %v", err)
	}
	if len(dirs) < 7 {
		t.Fatalf("expected the lint tree's packages, got %v", dirs)
	}
	for _, d := range dirs {
		if strings.Contains(d, "testdata") {
			t.Errorf("testdata must be skipped: %s", d)
		}
	}
}

// TestLoadDirHonorsBuildConstraints loads testdata/pair, whose x_amd64.go
// and //go:build !amd64 x_other.go declare the same function, as the mat
// kernels' assembly declarations and Go loops do: only the file the host
// builds is type-checked, so the pair is not a redeclaration.
func TestLoadDirHonorsBuildConstraints(t *testing.T) {
	l, err := NewLoader(".")
	if err != nil {
		t.Fatalf("NewLoader: %v", err)
	}
	dir := filepath.Join(l.ModuleDir, "internal", "lint", "load", "testdata", "pair")
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("LoadDir: %v", err)
	}
	if len(pkg.TypeErrors) != 0 {
		t.Fatalf("type errors: %v", pkg.TypeErrors)
	}
	if len(pkg.Files) != 2 {
		t.Errorf("loaded %d files, want use.go and the host's kernel file", len(pkg.Files))
	}
}
