package dataflow_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"testing"

	"setlearn/internal/lint/cfg"
	"setlearn/internal/lint/dataflow"
)

func build(t *testing.T, src string) *cfg.Graph {
	t.Helper()
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "test.go", "package p\n"+src, 0)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	fd := file.Decls[0].(*ast.FuncDecl)
	return cfg.Build(fset, fd.Body)
}

// nodeHas reports whether a CFG node's source representation mentions a
// call to name (crude but sufficient for the toy programs here).
func nodeHas(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if call, ok := m.(*ast.CallExpr); ok {
			if id, ok := call.Fun.(*ast.Ident); ok && id.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

// orLattice is a may-analysis: "has acquire() possibly run".
type orLattice struct{}

func (orLattice) Init() bool           { return false }
func (orLattice) Join(a, b bool) bool  { return a || b }
func (orLattice) Equal(a, b bool) bool { return a == b }

func TestForwardMay(t *testing.T) {
	g := build(t, `func f(cond bool) {
	if cond {
		acquire()
	}
	use()
}`)
	res := dataflow.Forward[bool](g, orLattice{}, false, func(b *cfg.Block, in bool) bool {
		out := in
		for _, n := range b.Nodes {
			if nodeHas(n, "acquire") {
				out = true
			}
		}
		return out
	})
	if !res.In[g.Exit] {
		t.Error("acquire() may have run by exit")
	}
	if res.Out[g.Entry] {
		t.Error("acquire() cannot have run at the end of the entry block (it is conditional)")
	}
}

func TestForwardLoopTerminates(t *testing.T) {
	g := build(t, `func f(n int) {
	for i := 0; i < n; i++ {
		acquire()
	}
}`)
	// Saturating counter lattice: 0, 1, 2+ — finite height, so the loop
	// must reach a fixed point.
	res := dataflow.Forward[int](g, intLattice{}, 0, func(b *cfg.Block, in int) int {
		out := in
		for _, n := range b.Nodes {
			if nodeHas(n, "acquire") && out < 2 {
				out++
			}
		}
		return out
	})
	if res.In[g.Exit] == 0 {
		t.Error("loop body may run: exit state should reflect possible acquires")
	}
}

type intLattice struct{}

func (intLattice) Init() int { return 0 }
func (intLattice) Join(a, b int) int {
	if a > b {
		return a
	}
	return b
}
func (intLattice) Equal(a, b int) bool { return a == b }

func TestPathsEnumeration(t *testing.T) {
	g := build(t, `func f(a, b bool) {
	if a {
		one()
	}
	if b {
		two()
	}
}`)
	count := 0
	complete := dataflow.Paths(g, g.Entry, g.Exit, dataflow.Limit(g), func(path []*cfg.Block) bool {
		count++
		if path[0] != g.Entry || path[len(path)-1] != g.Exit {
			t.Error("path must run entry→exit")
		}
		return true
	})
	if !complete {
		t.Error("enumeration should complete within the budget")
	}
	if count != 4 {
		t.Errorf("two independent branches should give 4 paths, got %d", count)
	}
}

func TestPathsEarlyStop(t *testing.T) {
	g := build(t, `func f(a, b bool) {
	if a {
		one()
	}
	if b {
		two()
	}
}`)
	count := 0
	complete := dataflow.Paths(g, g.Entry, g.Exit, dataflow.Limit(g), func(path []*cfg.Block) bool {
		count++
		return false // abort after the first path
	})
	if count != 1 {
		t.Errorf("visitor abort should stop enumeration, saw %d paths", count)
	}
	if !complete {
		t.Error("visitor abort is not a truncation")
	}
}

func TestPathsTruncation(t *testing.T) {
	g := build(t, `func f(a, b, c bool) {
	if a {
		one()
	}
	if b {
		two()
	}
	if c {
		three()
	}
}`)
	complete := dataflow.Paths(g, g.Entry, g.Exit, 3, func(path []*cfg.Block) bool { return true })
	if complete {
		t.Error("8 paths cannot fit a budget of 3; Paths must report truncation")
	}
}

func TestLimitClamps(t *testing.T) {
	small := build(t, `func f() {}`)
	if got := dataflow.Limit(small); got != 64 {
		t.Errorf("small graph limit = %d, want the 64 floor", got)
	}
}
