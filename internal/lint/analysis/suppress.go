package analysis

import (
	"go/ast"
	"go/token"
	"strconv"
	"strings"
)

// A suppression comment has the form
//
//	//lint:allow <analyzer> -- <justification>
//
// It silences <analyzer> on the line it shares (trailing comment) or, when
// it stands alone, on the next line. The justification after "--" is
// mandatory: a bare //lint:allow is reported as a diagnostic instead of
// honoured, so every escape hatch in the tree explains itself.
const allowPrefix = "//lint:allow "

type suppression struct {
	analyzer      string
	file          string
	line          int // line the suppression covers
	pos           token.Pos
	justification string
}

type suppressionIndex struct {
	// byLine maps file:line to the analyzers allowed there.
	byLine map[string][]suppression
	// bad holds well-targeted but justification-free suppressions.
	bad []suppression
}

func buildSuppressionIndex(fset *token.FileSet, files []*ast.File) *suppressionIndex {
	idx := &suppressionIndex{byLine: make(map[string][]suppression)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, allowPrefix) {
					continue
				}
				rest := strings.TrimSpace(strings.TrimPrefix(c.Text, allowPrefix))
				name, justification := rest, ""
				if i := strings.Index(rest, "--"); i >= 0 {
					name = strings.TrimSpace(rest[:i])
					justification = strings.TrimSpace(rest[i+2:])
				}
				// Only the first field names the analyzer; anything else
				// before "--" (stray text) leaves the suppression
				// justification-free and therefore reported.
				fields := strings.Fields(name)
				if len(fields) == 0 {
					continue
				}
				if name = fields[0]; len(fields) > 1 {
					justification = ""
				}
				pos := fset.Position(c.Pos())
				s := suppression{
					analyzer:      name,
					file:          pos.Filename,
					line:          coveredLine(fset, f, c, pos),
					pos:           c.Pos(),
					justification: justification,
				}
				if s.justification == "" {
					idx.bad = append(idx.bad, s)
					continue
				}
				key := lineKey(s.file, s.line)
				idx.byLine[key] = append(idx.byLine[key], s)
			}
		}
	}
	return idx
}

// coveredLine decides which source line a suppression comment governs: its
// own line when code precedes it (trailing comment), otherwise the next
// line (standalone comment above the flagged statement).
func coveredLine(fset *token.FileSet, f *ast.File, c *ast.Comment, pos token.Position) int {
	tf := fset.File(c.Pos())
	if tf == nil {
		return pos.Line
	}
	lineStart := tf.LineStart(pos.Line)
	standalone := true
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || !standalone {
			return false
		}
		// Any non-comment node starting on the same line before the
		// comment makes it a trailing comment.
		if n.Pos() >= lineStart && n.Pos() < c.Pos() {
			if _, ok := n.(*ast.Comment); !ok {
				if _, ok := n.(*ast.CommentGroup); !ok {
					if _, ok := n.(*ast.File); !ok {
						standalone = false
					}
				}
			}
		}
		return true
	})
	if standalone {
		return pos.Line + 1
	}
	return pos.Line
}

func lineKey(file string, line int) string {
	return file + "\x00" + strconv.Itoa(line)
}

func (idx *suppressionIndex) allows(analyzer string, pos token.Position) bool {
	for _, s := range idx.byLine[lineKey(pos.Filename, pos.Line)] {
		if s.analyzer == analyzer {
			return true
		}
	}
	return false
}

func (idx *suppressionIndex) malformed(analyzer string) []token.Pos {
	var out []token.Pos
	for _, s := range idx.bad {
		if s.analyzer == analyzer {
			out = append(out, s.pos)
		}
	}
	return out
}

// Suppressions is the //lint:allow index for an arbitrary file set,
// exported for interprocedural analyzers that must honour suppressions in
// packages other than the one their Pass was created for (e.g. an allow
// comment on a helper's mutation silencing it at every publish site whose
// call chain reaches it).
type Suppressions struct{ idx *suppressionIndex }

// BuildSuppressions indexes the well-formed //lint:allow comments in files.
func BuildSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	return &Suppressions{idx: buildSuppressionIndex(fset, files)}
}

// Allows reports whether a justified //lint:allow comment for analyzer
// covers the line of pos.
func (s *Suppressions) Allows(analyzer string, pos token.Position) bool {
	return s.idx.allows(analyzer, pos)
}
