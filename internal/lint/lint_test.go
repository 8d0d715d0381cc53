package lint_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"setlearn/internal/lint"
	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/noalloc"
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

// TestNoallocRealHotPaths is the acceptance gate for the interprocedural
// layer: every //lint:hotpath annotation in the real serving code — the
// mat kernels, the delta read path, the shard delta fan-in — must verify
// with ZERO diagnostics and zero suppressions. A regression in the predictors,
// or an analyzer change that starts flagging the blessed idioms
// (cap-guarded growth, panic arguments, caller-owned appends), fails here.
func TestNoallocRealHotPaths(t *testing.T) {
	var out strings.Builder
	res, err := lint.Run("../..", []string{
		"./internal/deepsets", "./internal/mat", "./internal/shard", "./internal/hybrid",
	}, []*analysis.Analyzer{noalloc.Analyzer}, &out)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Errors != 0 {
		t.Fatalf("unexpected errors:\n%s", out.String())
	}
	if res.Packages != 4 {
		t.Fatalf("packages = %d, want 4", res.Packages)
	}
	if res.Diagnostics != 0 {
		t.Errorf("real hot paths must verify allocation-free, got %d findings:\n%s",
			res.Diagnostics, out.String())
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

// TestJSONOutput pins the -json document shape against the seedmod
// regression package, whose finding carries an interprocedural trace.
func TestJSONOutput(t *testing.T) {
	var out strings.Builder
	res, err := lint.RunWithOptions("../..", []string{"./internal/lint/testdata/seedmod"},
		[]*analysis.Analyzer{noalloc.Analyzer}, &out, lint.Options{JSON: true})
	if err != nil {
		t.Fatalf("RunWithOptions: %v", err)
	}
	if res.Diagnostics != 1 || res.Errors != 0 {
		t.Fatalf("res = %+v, want 1 diagnostic, 0 errors\n%s", res, out.String())
	}
	var doc struct {
		Diagnostics []struct {
			File     string   `json:"file"`
			Line     int      `json:"line"`
			Col      int      `json:"col"`
			Analyzer string   `json:"analyzer"`
			Message  string   `json:"message"`
			Trace    []string `json:"trace"`
		} `json:"diagnostics"`
		Errors   []string `json:"errors"`
		Packages int      `json:"packages"`
	}
	if err := json.Unmarshal([]byte(out.String()), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, out.String())
	}
	if doc.Packages != 1 || len(doc.Errors) != 0 || len(doc.Diagnostics) != 1 {
		t.Fatalf("document = %+v", doc)
	}
	d := doc.Diagnostics[0]
	if d.File != "internal/lint/testdata/seedmod/seedmod.go" {
		t.Errorf("file = %q", d.File)
	}
	if d.Line == 0 || d.Col == 0 {
		t.Errorf("missing position: line=%d col=%d", d.Line, d.Col)
	}
	if d.Analyzer != "noalloc" {
		t.Errorf("analyzer = %q", d.Analyzer)
	}
	if !strings.Contains(d.Message, "reaches an allocating construct") {
		t.Errorf("message = %q", d.Message)
	}
	if len(d.Trace) != 2 || !strings.HasPrefix(d.Trace[0], "helperLen ") || !strings.HasPrefix(d.Trace[1], "newBuf ") {
		t.Errorf("trace = %q, want [helperLen ..., newBuf ...]", d.Trace)
	}
}

// TestSARIFOutput pins the -sarif log shape against a golden file, using
// the same seedmod finding as TestJSONOutput so the interprocedural trace
// exercises relatedLocations.
func TestSARIFOutput(t *testing.T) {
	var out strings.Builder
	res, err := lint.RunWithOptions("../..", []string{"./internal/lint/testdata/seedmod"},
		[]*analysis.Analyzer{noalloc.Analyzer}, &out, lint.Options{SARIF: true})
	if err != nil {
		t.Fatalf("RunWithOptions: %v", err)
	}
	if res.Diagnostics != 1 || res.Errors != 0 {
		t.Fatalf("res = %+v, want 1 diagnostic, 0 errors\n%s", res, out.String())
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "sarif_golden.json"))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}
	if got := out.String(); got != string(golden) {
		t.Errorf("SARIF output drifted from testdata/sarif_golden.json:\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

// TestByName covers the analyzer registry the -run flag resolves through.
func TestByName(t *testing.T) {
	for _, name := range []string{
		"atomicmix", "binioerr", "deferclose", "floateq", "globalrand",
		"goroleak", "lockbalance", "lockescape", "mapiterorder", "noalloc",
		"poolpair", "pubfreeze", "trustlen", "waitgroup",
	} {
		if lint.ByName(name) == nil {
			t.Errorf("ByName(%q) = nil", name)
		}
	}
	if lint.ByName("nosuch") != nil {
		t.Error("ByName(nosuch) should be nil")
	}
	if len(lint.Analyzers) != 14 {
		t.Errorf("suite has %d analyzers, want 14", len(lint.Analyzers))
	}
}
