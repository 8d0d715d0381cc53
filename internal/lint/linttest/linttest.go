// Package linttest runs an analyzer over a testdata package and checks its
// diagnostics against // want "regexp" comments, following the conventions
// of golang.org/x/tools/go/analysis/analysistest:
//
//	f, err := os.Open(name) // want `f from os.Open is not released`
//
// Every diagnostic must be matched by a want comment on its line, and
// every want comment must be matched by a diagnostic. Analyzer Scope is
// ignored — testdata packages exercise the check itself, not the driver's
// package filter.
package linttest

import (
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"setlearn/internal/lint/analysis"
	"setlearn/internal/lint/load"
)

var wantRE = regexp.MustCompile("// want (.*)$")

// Run loads testdata/src/<pkg> relative to the caller's directory and
// checks analyzer a against its want comments.
func Run(t *testing.T, a *analysis.Analyzer, pkg string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", pkg)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	var paths []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		t.Fatalf("linttest: no Go files in %s", dir)
	}

	loader, err := load.NewLoader(".")
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	lp, err := loader.LoadFiles(pkg, paths)
	if err != nil {
		t.Fatalf("linttest: %v", err)
	}
	for _, terr := range lp.TypeErrors {
		t.Errorf("linttest: testdata does not type-check: %v", terr)
	}

	var got []analysis.Diagnostic
	pass := analysis.NewPass(a, lp.Fset, lp.Files, lp.Types, lp.Info, func(d analysis.Diagnostic) {
		got = append(got, d)
	})
	if err := a.Run(pass); err != nil {
		t.Fatalf("linttest: analyzer %s: %v", a.Name, err)
	}
	pass.ReportBadSuppressions()

	wants := collectWants(t, paths)
	for _, d := range got {
		pos := lp.Fset.Position(d.Pos)
		if !wants.match(pos, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", rel(pos), d.Message)
		}
	}
	for _, w := range wants.unmatched() {
		t.Errorf("%s:%d: no diagnostic matching %q", w.file, w.line, w.re)
	}
}

type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

type wantSet struct{ wants []*want }

// collectWants scans raw source lines for want comments; each carries one
// or more backquoted or double-quoted regexps.
func collectWants(t *testing.T, paths []string) *wantSet {
	t.Helper()
	ws := &wantSet{}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("linttest: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRE.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			for _, pat := range splitPatterns(m[1]) {
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("linttest: %s:%d: bad want pattern %q: %v", p, i+1, pat, err)
				}
				ws.wants = append(ws.wants, &want{file: p, line: i + 1, re: re})
			}
		}
	}
	return ws
}

// splitPatterns parses a want payload like `"a" "b"` or "`a` `b`".
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, s[1:1+end])
		s = strings.TrimSpace(s[2+end:])
	}
	return out
}

func (ws *wantSet) match(pos token.Position, msg string) bool {
	for _, w := range ws.wants {
		if !w.matched && w.line == pos.Line && sameFile(w.file, pos.Filename) && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

func (ws *wantSet) unmatched() []*want {
	var out []*want
	for _, w := range ws.wants {
		if !w.matched {
			out = append(out, w)
		}
	}
	return out
}

func sameFile(a, b string) bool {
	return filepath.Base(a) == filepath.Base(b)
}

func rel(pos token.Position) string {
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}
