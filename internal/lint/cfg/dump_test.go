package cfg

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/printer"
	"strings"
)

// Dump renders the graph as a stable text form for golden tests: one
// paragraph per block with its nodes and successor list.
func (g *Graph) Dump() string {
	var sb strings.Builder
	for _, b := range g.Blocks {
		fmt.Fprintf(&sb, "b%d %s\n", b.Index, b.Desc)
		for _, n := range b.Nodes {
			marker := ""
			if e, ok := n.(ast.Expr); ok && e == b.Cond {
				marker = "cond "
			}
			fmt.Fprintf(&sb, "\t%s%s\n", marker, g.nodeText(n))
		}
		if len(b.Succs) > 0 {
			var ss []string
			for _, s := range b.Succs {
				ss = append(ss, fmt.Sprintf("b%d", s.Index))
			}
			fmt.Fprintf(&sb, "\t-> %s\n", strings.Join(ss, " "))
		}
	}
	return sb.String()
}

// nodeText renders a node as one line of collapsed source, capped so
// multi-line nodes (closures) stay readable in dumps.
func (g *Graph) nodeText(n ast.Node) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, g.fset, n); err != nil {
		return fmt.Sprintf("<%T>", n)
	}
	s := strings.Join(strings.Fields(buf.String()), " ")
	if len(s) > 60 {
		s = s[:57] + "..."
	}
	return s
}
