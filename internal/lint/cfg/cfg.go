// Package cfg builds intraprocedural control-flow graphs from go/ast
// function bodies for the path-sensitive setlearnlint analyzers. The
// graph is a set of basic blocks connected by edges for every construct
// that moves control: if/else, for/range loops (with break, continue, and
// labeled variants), switch and type switch (including fallthrough),
// select, goto, explicit panic calls, and returns.
//
// Only "simple" statements land in Block.Nodes — assignments, calls,
// sends, defers, go statements, and the control expressions of the
// enclosing compound statements (an if condition, a range operand, a
// select comm clause). Compound statement bodies are flattened into
// successor blocks, so walking a block's nodes never double-visits a
// nested body. Function literals are NOT flattened: a FuncLit inside a
// node is a separate function with its own CFG, and analyzers must skip
// its body when scanning nodes.
//
// Two synthetic exit blocks terminate every graph: Exit collects normal
// returns (and falling off the end of the body), Panic collects explicit
// panic(...) statements.
package cfg

import (
	"go/ast"
	"go/token"
)

// Graph is the control-flow graph of one function body.
type Graph struct {
	Entry *Block
	Exit  *Block // normal returns and fall-off-the-end
	Panic *Block // explicit panic(...) exits

	// Blocks lists every reachable block: Entry first, body blocks in
	// construction order, then Exit and Panic.
	Blocks []*Block

	// Defers collects every defer statement in the body, in source order.
	// Defer bodies run on all exits downstream of the statement.
	Defers []*ast.DeferStmt

	fset *token.FileSet
}

// Block is one basic block.
type Block struct {
	Index int
	Desc  string // "entry", "if.then", "for.loop", "select.case", ...

	// Nodes holds the block's simple statements and control expressions
	// in source order.
	Nodes []ast.Node

	// Cond, when non-nil, is the two-way branch condition terminating the
	// block; Succs[0] is the true edge and Succs[1] the false edge.
	Cond ast.Expr

	// Comm, when non-nil, is the select comm statement guarding this
	// block (the block is a select case); the comm is also Nodes[0].
	Comm ast.Stmt

	Succs []*Block
	Preds []*Block
}

type labelInfo struct {
	gotoTarget *Block // block starting the labeled statement
	brk, cont  *Block // break/continue targets when the label names a loop/switch/select
}

type builder struct {
	g       *Graph
	current *Block
	blocks  []*Block // body blocks in construction order

	breaks    []target
	continues []target
	fall      *Block // fallthrough target inside a switch case

	labels       map[string]*labelInfo
	gotos        []pendingGoto
	pendingLabel string
}

type target struct {
	label string
	block *Block
}

type pendingGoto struct {
	name string
	from *Block
}

// Build constructs the CFG of body. fset is retained for Dump.
func Build(fset *token.FileSet, body *ast.BlockStmt) *Graph {
	b := &builder{
		g:      &Graph{fset: fset},
		labels: map[string]*labelInfo{},
	}
	b.g.Entry = &Block{Desc: "entry"}
	b.g.Exit = &Block{Desc: "exit"}
	b.g.Panic = &Block{Desc: "panic"}
	b.current = b.g.Entry
	b.stmtList(body.List)
	b.edge(b.current, b.g.Exit) // falling off the end returns
	for _, pg := range b.gotos {
		if li := b.labels[pg.name]; li != nil && li.gotoTarget != nil {
			b.edge(pg.from, li.gotoTarget)
		}
	}
	b.finish()
	return b.g
}

// finish prunes blocks unreachable from Entry, fills Preds, and indexes.
func (b *builder) finish() {
	reach := map[*Block]bool{}
	var dfs func(*Block)
	dfs = func(blk *Block) {
		if reach[blk] {
			return
		}
		reach[blk] = true
		for _, s := range blk.Succs {
			dfs(s)
		}
	}
	dfs(b.g.Entry)

	blocks := []*Block{b.g.Entry}
	for _, blk := range b.blocks {
		if reach[blk] {
			blocks = append(blocks, blk)
		}
	}
	blocks = append(blocks, b.g.Exit, b.g.Panic)
	for i, blk := range blocks {
		blk.Index = i
	}
	for _, blk := range blocks {
		for _, s := range blk.Succs {
			s.Preds = append(s.Preds, blk)
		}
	}
	b.g.Blocks = blocks
}

func (b *builder) newBlock(desc string) *Block {
	blk := &Block{Desc: desc}
	b.blocks = append(b.blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

func (b *builder) add(n ast.Node) {
	b.current.Nodes = append(b.current.Nodes, n)
}

// takeLabel consumes the label attached to the statement being built, so
// labeled loops/switches register their break and continue targets.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) labelFor(name string) *labelInfo {
	li := b.labels[name]
	if li == nil {
		li = &labelInfo{}
		b.labels[name] = li
	}
	return li
}

func (b *builder) findTarget(stack []target, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.IfStmt:
		b.takeLabel() // labels on if only matter for goto, already handled
		if s.Init != nil {
			b.stmt(s.Init)
		}
		cond := b.current
		b.add(s.Cond)
		cond.Cond = s.Cond
		then := b.newBlock("if.then")
		b.edge(cond, then)
		if s.Else != nil {
			els := b.newBlock("if.else")
			b.edge(cond, els)
			done := b.newBlock("if.done")
			b.current = then
			b.stmt(s.Body)
			b.edge(b.current, done)
			b.current = els
			b.stmt(s.Else)
			b.edge(b.current, done)
			b.current = done
		} else {
			done := b.newBlock("if.done")
			b.edge(cond, done)
			b.current = then
			b.stmt(s.Body)
			b.edge(b.current, done)
			b.current = done
		}

	case *ast.ForStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		loop := b.newBlock("for.loop")
		b.edge(b.current, loop)
		body := b.newBlock("for.body")
		done := b.newBlock("for.done")
		post := loop
		if s.Post != nil {
			post = b.newBlock("for.post")
		}
		if s.Cond != nil {
			b.current = loop
			b.add(s.Cond)
			loop.Cond = s.Cond
			b.edge(loop, body)
			b.edge(loop, done)
		} else {
			b.edge(loop, body) // for{}: done only via break
		}
		if label != "" {
			li := b.labelFor(label)
			li.brk, li.cont = done, post
		}
		b.breaks = append(b.breaks, target{label, done})
		b.continues = append(b.continues, target{label, post})
		b.current = body
		b.stmt(s.Body)
		b.edge(b.current, post)
		if s.Post != nil {
			b.current = post
			b.stmt(s.Post)
			b.edge(b.current, loop)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.current = done

	case *ast.RangeStmt:
		label := b.takeLabel()
		b.add(s.X) // the ranged operand is evaluated once, entering the loop
		loop := b.newBlock("range.loop")
		b.edge(b.current, loop)
		body := b.newBlock("range.body")
		done := b.newBlock("range.done")
		b.edge(loop, body)
		b.edge(loop, done)
		if label != "" {
			li := b.labelFor(label)
			li.brk, li.cont = done, loop
		}
		b.breaks = append(b.breaks, target{label, done})
		b.continues = append(b.continues, target{label, loop})
		b.current = body
		b.stmt(s.Body)
		b.edge(b.current, loop)
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.continues = b.continues[:len(b.continues)-1]
		b.current = done

	case *ast.SwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(label, s.Body, true)

	case *ast.TypeSwitchStmt:
		label := b.takeLabel()
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(label, s.Body, false)

	case *ast.SelectStmt:
		label := b.takeLabel()
		head := b.current
		done := b.newBlock("select.done")
		if label != "" {
			b.labelFor(label).brk = done
		}
		b.breaks = append(b.breaks, target{label, done})
		for _, c := range s.Body.List {
			cc := c.(*ast.CommClause)
			desc := "select.case"
			if cc.Comm == nil {
				desc = "select.default"
			}
			blk := b.newBlock(desc)
			b.edge(head, blk)
			b.current = blk
			if cc.Comm != nil {
				b.add(cc.Comm)
				blk.Comm = cc.Comm
			}
			b.stmtList(cc.Body)
			b.edge(b.current, done)
		}
		b.breaks = b.breaks[:len(b.breaks)-1]
		b.current = done

	case *ast.LabeledStmt:
		lb := b.newBlock("label." + s.Label.Name)
		b.edge(b.current, lb)
		b.current = lb
		b.labelFor(s.Label.Name).gotoTarget = lb
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			var to *Block
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil {
					to = li.brk
				}
			} else {
				to = b.findTarget(b.breaks, "")
			}
			b.jump(to)
		case token.CONTINUE:
			var to *Block
			if s.Label != nil {
				if li := b.labels[s.Label.Name]; li != nil {
					to = li.cont
				}
			} else {
				to = b.findTarget(b.continues, "")
			}
			b.jump(to)
		case token.GOTO:
			if s.Label != nil {
				b.gotos = append(b.gotos, pendingGoto{s.Label.Name, b.current})
			}
			b.current = b.newBlock("unreachable")
		case token.FALLTHROUGH:
			b.jump(b.fall)
		}

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.g.Exit)

	case *ast.DeferStmt:
		b.add(s)
		b.g.Defers = append(b.g.Defers, s)

	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok && isPanicCall(call) {
			b.add(s)
			b.jump(b.g.Panic)
			return
		}
		b.add(s)

	case *ast.EmptyStmt:
		// nothing

	default:
		// AssignStmt, DeclStmt, GoStmt, SendStmt, IncDecStmt, ...
		b.add(s)
	}
}

// jump ends the current block with an edge to, then continues building
// into an unreachable stub (pruned unless a label lands on it).
func (b *builder) jump(to *Block) {
	if to != nil {
		b.edge(b.current, to)
	}
	b.current = b.newBlock("unreachable")
}

// switchBody builds the shared case structure of switch and type switch;
// the head block (holding tag/assign) is b.current on entry.
func (b *builder) switchBody(label string, body *ast.BlockStmt, allowFall bool) {
	head := b.current
	done := b.newBlock("switch.done")
	if label != "" {
		b.labelFor(label).brk = done
	}
	b.breaks = append(b.breaks, target{label, done})

	var clauses []*ast.CaseClause
	for _, c := range body.List {
		clauses = append(clauses, c.(*ast.CaseClause))
	}
	caseBlocks := make([]*Block, len(clauses))
	hasDefault := false
	for i, cc := range clauses {
		desc := "switch.case"
		if cc.List == nil {
			desc = "switch.default"
			hasDefault = true
		}
		caseBlocks[i] = b.newBlock(desc)
		b.edge(head, caseBlocks[i])
	}
	if !hasDefault {
		b.edge(head, done)
	}
	savedFall := b.fall
	for i, cc := range clauses {
		b.fall = nil
		if allowFall && i+1 < len(clauses) {
			b.fall = caseBlocks[i+1]
		}
		b.current = caseBlocks[i]
		for _, e := range cc.List {
			b.add(e)
		}
		b.stmtList(cc.Body)
		b.edge(b.current, done)
	}
	b.fall = savedFall
	b.breaks = b.breaks[:len(b.breaks)-1]
	b.current = done
}

// isPanicCall matches an explicit call to the panic builtin syntactically;
// shadowing panic is pathological enough not to model.
func isPanicCall(call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	return ok && id.Name == "panic"
}
