package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setlearn/internal/lint"
	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/pubfreeze"
)

// TestRunTempModule drives the whole pipeline — pattern expansion,
// type-checking, scope filtering, reporting — over a throwaway module
// with known violations.
func TestRunTempModule(t *testing.T) {
	dir := t.TempDir()
	write := func(name, src string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module tmplint\n\ngo 1.22\n")
	write("bad.go", `package tmplint

import (
	"encoding/binary"
	"io"
	"sync/atomic"
)

type snapshot struct{ n int }

var current atomic.Pointer[snapshot]

func publishThenWrite() {
	s := &snapshot{}
	current.Store(s)
	s.n = 1 // pubfreeze: written after publication
}

// sized would trip trustlen, but this module is outside its Scope, so the
// driver must not report it.
func sized(r io.Reader) []byte {
	var n uint32
	if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
		return nil
	}
	return make([]byte, n)
}
`)

	var out strings.Builder
	res, err := lint.Run(dir, []string{"./..."}, nil, &out)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors:\n%s", out.String())
	}
	if res.Packages != 1 {
		t.Fatalf("packages = %d, want 1\n%s", res.Packages, out.String())
	}
	if res.Diagnostics != 1 {
		t.Fatalf("diagnostics = %d, want 1 (pubfreeze):\n%s", res.Diagnostics, out.String())
	}
	got := out.String()
	for _, want := range []string{"(pubfreeze)", "bad.go:16"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "trustlen") {
		t.Errorf("scoped analyzer leaked outside its packages:\n%s", got)
	}
}

// TestPubfreezeRealHotSwapSites is the acceptance gate for the
// publication-safety layer: every atomic hot-swap in the serving stack —
// the sharded containers' per-shard state swaps in RetrainShard,
// deepsets' φ-accel (PhiTable/PhiCache) attach, core's fast-path options
// install — must verify frozen-after-publish with ZERO diagnostics and
// zero suppressions. A new mutate-after-Store bug, or an analyzer change that
// starts flagging the blessed copy-on-write idiom (build fresh, mutate
// fresh, Store fresh), fails here.
func TestPubfreezeRealHotSwapSites(t *testing.T) {
	dirs := []string{
		"./internal/hybrid", "./internal/shard", "./internal/deepsets",
		"./internal/core", "./internal/server",
	}
	var out strings.Builder
	res, err := lint.Run("../..", dirs, []*analysis.Analyzer{pubfreeze.Analyzer}, &out)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors:\n%s", out.String())
	}
	if res.Packages != len(dirs) {
		t.Fatalf("packages = %d, want %d", res.Packages, len(dirs))
	}
	if res.Diagnostics != 0 {
		t.Errorf("real hot-swap sites must verify frozen-after-publish, got %d findings:\n%s",
			res.Diagnostics, out.String())
	}
	// Zero suppressions: the clean pass above must come from the code, not
	// from //lint:allow escape hatches.
	for _, d := range dirs {
		root := filepath.Join("../..", d)
		err := filepath.WalkDir(root, func(path string, de os.DirEntry, err error) error {
			if err != nil || de.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			if strings.Contains(string(src), "lint:allow pubfreeze") {
				t.Errorf("%s suppresses pubfreeze — the hot-swap contract must hold without escape hatches", path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSeededRegressions runs the whole suite over testdata/seedmod, whose
// deliberate trustlen and pubfreeze violations each end in a "// seed:
// <analyzer>" comment, and fails unless every one is reported at its own
// line: a clean pass over the real tree only means something while the
// interprocedural analyzers still reject their seeds.
func TestSeededRegressions(t *testing.T) {
	const dir = "testdata/seedmod"
	src, err := os.ReadFile(filepath.Join(dir, "seedmod.go"))
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	res, err := lint.Run("../..", []string{"./internal/lint/" + dir}, nil, &out)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 || res.Packages != 1 {
		t.Fatalf("res = %+v, want 1 package and 0 errors:\n%s", res, out.String())
	}
	seeds := 0
	for i, line := range strings.Split(string(src), "\n") {
		_, analyzer, ok := strings.Cut(line, "// seed: ")
		if !ok {
			continue
		}
		seeds++
		at := fmt.Sprintf("seedmod.go:%d:", i+1)
		found := false
		for _, f := range strings.Split(out.String(), "\n") {
			if strings.Contains(f, at) && strings.HasSuffix(f, "("+analyzer+")") {
				found = true
			}
		}
		if !found {
			t.Errorf("seeded %s finding at %s missing:\n%s", analyzer, at, out.String())
		}
	}
	if seeds < 3 {
		t.Errorf("found %d seeds in seedmod.go, want at least 3", seeds)
	}
}

// TestByName covers the analyzer registry the -run flag resolves through.
func TestByName(t *testing.T) {
	for _, name := range []string{"deferclose", "pubfreeze", "trustlen"} {
		if lint.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
	if len(lint.Analyzers) != 3 {
		t.Errorf("suite has %d analyzers, want 3", len(lint.Analyzers))
	}
}
