package lint_test

import (
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
	"sync"
)

func dropped(r io.Reader, v *uint32) {
	binary.Read(r, binary.LittleEndian, v) // binioerr: discarded
}

func unpaired(p *sync.Pool) {
	x := p.Get()
	p.Put(x) // poolpair: not deferred
}

// floatCompare would trip floateq, but this module is outside its Scope,
// so the driver must not report it.
func floatCompare(a, b float64) bool { return a == b }
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
	if res.Diagnostics != 2 {
		t.Fatalf("diagnostics = %d, want 2 (binioerr + poolpair):\n%s", res.Diagnostics, out.String())
	}
	got := out.String()
	for _, want := range []string{"(binioerr)", "(poolpair)", "bad.go:10", "bad.go:15"} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "floateq") {
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

// TestSeededRegressions runs the whole suite over testdata/seedmod, which
// carries one deliberate trustlen and one deliberate pubfreeze violation,
// and fails unless both are reported: a clean pass over the real tree only
// means something while the interprocedural analyzers still reject their
// seeds.
func TestSeededRegressions(t *testing.T) {
	var out strings.Builder
	res, err := lint.Run("../..", []string{"./internal/lint/testdata/seedmod"}, nil, &out)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 || res.Packages != 1 {
		t.Fatalf("res = %+v, want 1 package and 0 errors:\n%s", res, out.String())
	}
	for _, a := range []string{"trustlen", "pubfreeze"} {
		if !strings.Contains(out.String(), "("+a+")") {
			t.Errorf("seeded %s finding missing:\n%s", a, out.String())
		}
	}
}

// TestByName covers the analyzer registry the -run flag resolves through.
func TestByName(t *testing.T) {
	for _, name := range []string{
		"binioerr", "deferclose", "floateq", "globalrand", "goroleak",
		"lockbalance", "lockescape", "poolpair", "pubfreeze", "trustlen",
		"waitgroup",
	} {
		if lint.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
	if len(lint.Analyzers) != 11 {
		t.Errorf("suite has %d analyzers, want 11", len(lint.Analyzers))
	}
}
