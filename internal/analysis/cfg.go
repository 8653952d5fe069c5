package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the flow-sensitive layer of the framework: an
// intra-procedural control-flow graph hand-rolled from go/ast, plus a
// small forward-dataflow driver that iterates an abstract state to a
// fixpoint over the graph in reverse postorder. It exists so that
// analyzers can check "on all paths" properties — a span reaches End() —
// which per-statement AST walks (clockpolicy and friends) structurally
// cannot express.
//
// The graph is deliberately modest. Blocks hold ast.Nodes (statements,
// plus the condition/tag expressions of control statements) in evaluation
// order. Edges cover if/else, for/range loops with break/continue
// (labeled and not), switch/type-switch with fallthrough, select, goto
// and labels, and return. Three simplifications keep it small and honest:
//
//   - defer is modeled in place: a DeferStmt node sits in its block where
//     it executes its *evaluation*, and analyzers treat a recognized
//     deferred release as discharging the obligation from that point on —
//     which is exactly the "all paths that reach the defer are covered"
//     semantics the spanend check needs.
//   - panic(...), runtime aborts (os.Exit, log.Fatal*, t.Fatal*) and
//     calls that never return end their block with an edge to Exit marked
//     ExitPanic, so liveness checks can skip obligations on abort paths.
//   - expressions inside a statement are not themselves broken into
//     sub-blocks (no short-circuit modeling); transfer functions see
//     whole statements, matching the granularity of the checks.
type CFG struct {
	// Blocks in creation order; Blocks[0] is the entry block.
	Blocks []*Block
	// Exit is the single virtual exit block. It holds no nodes; edges
	// into it carry the exit kind of the predecessor.
	Exit *Block
}

// ExitKind says how a block's edge to Exit leaves the function.
type ExitKind uint8

const (
	// ExitNone: the block does not edge to Exit.
	ExitNone ExitKind = iota
	// ExitReturn: an explicit return statement.
	ExitReturn
	// ExitFall: falling off the end of the function body.
	ExitFall
	// ExitPanic: panic or a recognized no-return abort; obligation
	// checks skip these edges.
	ExitPanic
)

// Block is one straight-line run of nodes.
type Block struct {
	Index int
	// Nodes are statements and control expressions in evaluation order.
	Nodes []ast.Node
	Succs []*Block
	// Exit records how this block leaves the function, when one of its
	// successors is the CFG's Exit block.
	Exit ExitKind
	// Return is the return statement ending the block, when Exit is
	// ExitReturn.
	Return *ast.ReturnStmt
	// unreachable marks blocks synthesized after a terminating statement
	// (return/goto/panic) purely to keep the builder's invariants; they
	// have no predecessors.
	unreachable bool
}

// NewCFG builds the graph for one function body.
func NewCFG(body *ast.BlockStmt) *CFG {
	b := &builder{cfg: &CFG{Exit: &Block{Index: -1}}}
	b.cur = b.newBlock()
	b.stmtList(body.List)
	b.terminate(ExitFall, nil)
	return b.cfg
}

type loopFrame struct {
	label      string
	breakTo    *Block
	continueTo *Block // nil for switch/select frames (break-only)
}

type builder struct {
	cfg    *CFG
	cur    *Block
	frames []loopFrame
	labels map[string]*Block // goto / labeled-construct targets
}

func (b *builder) newBlock() *Block {
	blk := &Block{Index: len(b.cfg.Blocks)}
	b.cfg.Blocks = append(b.cfg.Blocks, blk)
	return blk
}

func (b *builder) edge(from, to *Block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.Succs {
		if s == to {
			return
		}
	}
	from.Succs = append(from.Succs, to)
}

// terminate ends the current block with an edge to Exit and opens a fresh
// unreachable block so later statements still land somewhere.
func (b *builder) terminate(kind ExitKind, ret *ast.ReturnStmt) {
	if b.cur.Exit == ExitNone {
		b.cur.Exit = kind
		b.cur.Return = ret
		b.edge(b.cur, b.cfg.Exit)
	}
	nxt := b.newBlock()
	nxt.unreachable = true
	b.cur = nxt
}

// jump ends the current block with an edge to target (break, continue,
// goto) and opens a fresh unreachable block.
func (b *builder) jump(target *Block) {
	b.edge(b.cur, target)
	nxt := b.newBlock()
	nxt.unreachable = true
	b.cur = nxt
}

func (b *builder) stmtList(stmts []ast.Stmt) {
	for _, s := range stmts {
		b.stmt(s)
	}
}

// frameFor finds the innermost frame matching the (possibly empty) label;
// wantContinue restricts to loop frames.
func (b *builder) frameFor(label string, wantContinue bool) *loopFrame {
	for i := len(b.frames) - 1; i >= 0; i-- {
		f := &b.frames[i]
		if wantContinue && f.continueTo == nil {
			continue
		}
		if label == "" || f.label == label {
			return f
		}
	}
	return nil
}

func (b *builder) labelBlock(name string) *Block {
	if b.labels == nil {
		b.labels = map[string]*Block{}
	}
	if blk, ok := b.labels[name]; ok {
		return blk
	}
	blk := b.newBlock()
	b.labels[name] = blk
	return blk
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.ReturnStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		b.terminate(ExitReturn, s)

	case *ast.BranchStmt:
		label := ""
		if s.Label != nil {
			label = s.Label.Name
		}
		switch s.Tok {
		case token.BREAK:
			if f := b.frameFor(label, false); f != nil {
				b.jump(f.breakTo)
			} else {
				b.terminate(ExitPanic, nil) // malformed; treat as abort
			}
		case token.CONTINUE:
			if f := b.frameFor(label, true); f != nil {
				b.jump(f.continueTo)
			} else {
				b.terminate(ExitPanic, nil)
			}
		case token.GOTO:
			b.jump(b.labelBlock(label))
		case token.FALLTHROUGH:
			// Handled by switch construction (case bodies already chain);
			// record nothing.
		}

	case *ast.LabeledStmt:
		// The label names both a goto target and, for loops/switches, the
		// construct for labeled break/continue.
		target := b.labelBlock(s.Label.Name)
		b.edge(b.cur, target)
		b.cur = target
		switch inner := s.Stmt.(type) {
		case *ast.ForStmt:
			b.forStmt(inner, s.Label.Name)
		case *ast.RangeStmt:
			b.rangeStmt(inner, s.Label.Name)
		case *ast.SwitchStmt:
			b.switchStmt(inner, s.Label.Name)
		case *ast.TypeSwitchStmt:
			b.typeSwitchStmt(inner, s.Label.Name)
		case *ast.SelectStmt:
			b.selectStmt(inner, s.Label.Name)
		default:
			b.stmt(s.Stmt)
		}

	case *ast.IfStmt:
		if s.Init != nil {
			b.stmt(s.Init)
		}
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		condBlk := b.cur
		join := b.newBlock()
		then := b.newBlock()
		b.edge(condBlk, then)
		b.cur = then
		b.stmtList(s.Body.List)
		b.edge(b.cur, join)
		if s.Else != nil {
			els := b.newBlock()
			b.edge(condBlk, els)
			b.cur = els
			b.stmt(s.Else)
			b.edge(b.cur, join)
		} else {
			b.edge(condBlk, join)
		}
		b.cur = join

	case *ast.ForStmt:
		b.forStmt(s, "")
	case *ast.RangeStmt:
		b.rangeStmt(s, "")
	case *ast.SwitchStmt:
		b.switchStmt(s, "")
	case *ast.TypeSwitchStmt:
		b.typeSwitchStmt(s, "")
	case *ast.SelectStmt:
		b.selectStmt(s, "")

	case *ast.BlockStmt:
		b.stmtList(s.List)

	case *ast.ExprStmt:
		b.cur.Nodes = append(b.cur.Nodes, s)
		if call, ok := s.X.(*ast.CallExpr); ok && isAbortCall(call) {
			b.terminate(ExitPanic, nil)
		}

	default:
		// Assignments, declarations, sends, defers, go statements,
		// inc/dec: straight-line nodes.
		b.cur.Nodes = append(b.cur.Nodes, s)
	}
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	head := b.newBlock()
	b.edge(b.cur, head)
	exit := b.newBlock()
	post := head
	if s.Post != nil {
		post = b.newBlock()
	}
	b.cur = head
	if s.Cond != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Cond)
		b.edge(b.cur, exit)
	}
	body := b.newBlock()
	b.edge(head, body)
	b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, continueTo: post})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	if s.Post != nil {
		b.edge(b.cur, post)
		b.cur = post
		b.stmt(s.Post)
		b.edge(b.cur, head)
	} else {
		b.edge(b.cur, head)
	}
	b.cur = exit
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	// The ranged expression is evaluated once, then the head decides
	// next-iteration vs exit each time around.
	b.cur.Nodes = append(b.cur.Nodes, s.X)
	head := b.newBlock()
	b.edge(b.cur, head)
	exit := b.newBlock()
	b.edge(head, exit)
	body := b.newBlock()
	b.edge(head, body)
	// Key/Value assignment happens at the top of each iteration; hand the
	// whole RangeStmt to transfer functions there.
	head.Nodes = append(head.Nodes, s)
	b.frames = append(b.frames, loopFrame{label: label, breakTo: exit, continueTo: head})
	b.cur = body
	b.stmtList(s.Body.List)
	b.frames = b.frames[:len(b.frames)-1]
	b.edge(b.cur, head)
	b.cur = exit
}

func (b *builder) switchStmt(s *ast.SwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	if s.Tag != nil {
		b.cur.Nodes = append(b.cur.Nodes, s.Tag)
	}
	head := b.cur
	exit := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: exit})
	var caseBlocks []*Block
	var clauses []*ast.CaseClause
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		for _, e := range cc.List {
			blk.Nodes = append(blk.Nodes, e)
		}
		b.edge(head, blk)
		caseBlocks = append(caseBlocks, blk)
		clauses = append(clauses, cc)
	}
	for i, blk := range caseBlocks {
		b.cur = blk
		b.stmtList(clauses[i].Body)
		// fallthrough chains to the next case's body block.
		if fallsThrough(clauses[i].Body) && i+1 < len(caseBlocks) {
			b.edge(b.cur, caseBlocks[i+1])
		} else {
			b.edge(b.cur, exit)
		}
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = exit
}

func (b *builder) typeSwitchStmt(s *ast.TypeSwitchStmt, label string) {
	if s.Init != nil {
		b.stmt(s.Init)
	}
	b.cur.Nodes = append(b.cur.Nodes, s.Assign)
	head := b.cur
	exit := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: exit})
	hasDefault := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		blk := b.newBlock()
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, exit)
	}
	if !hasDefault {
		b.edge(head, exit)
	}
	b.frames = b.frames[:len(b.frames)-1]
	b.cur = exit
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.cur
	exit := b.newBlock()
	b.frames = append(b.frames, loopFrame{label: label, breakTo: exit})
	any := false
	for _, c := range s.Body.List {
		cc, ok := c.(*ast.CommClause)
		if !ok {
			continue
		}
		any = true
		blk := b.newBlock()
		if cc.Comm != nil {
			blk.Nodes = append(blk.Nodes, cc.Comm)
		}
		b.edge(head, blk)
		b.cur = blk
		b.stmtList(cc.Body)
		b.edge(b.cur, exit)
	}
	b.frames = b.frames[:len(b.frames)-1]
	if !any {
		// select{} blocks forever: no successors, treat as abort.
		b.cur = head
		b.terminate(ExitPanic, nil)
		return
	}
	b.cur = exit
}

// fallsThrough reports whether a case body ends in a fallthrough.
func fallsThrough(body []ast.Stmt) bool {
	if len(body) == 0 {
		return false
	}
	br, ok := body[len(body)-1].(*ast.BranchStmt)
	return ok && br.Tok == token.FALLTHROUGH
}

// abortFuncs are call names that never return; their blocks exit the
// function as ExitPanic, so all-paths obligations are not checked past
// them (a leaked span on a panic path is the least of the process's
// problems, and t.Fatal paths in tests abort the goroutine).
var abortFuncs = map[string]bool{
	"panic": true, "Exit": true, "Fatal": true, "Fatalf": true,
	"Fatalln": true, "FailNow": true, "Goexit": true, "SkipNow": true,
	"Skip": true, "Skipf": true,
}

func isAbortCall(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		return abortFuncs[fun.Sel.Name]
	}
	return false
}

// --- dataflow driver ---

// FlowState is one analyzer-defined abstract state. States are immutable
// from the driver's perspective: Transfer and Join return fresh or reused
// values but must not mutate their receivers in ways that alias other
// blocks' states.
type FlowState interface {
	// Join merges another state into a new state (lattice least upper
	// bound). other may be nil (bottom), meaning "edge not yet reached".
	Join(other FlowState) FlowState
	// Equal reports lattice equality, used to detect the fixpoint.
	Equal(other FlowState) bool
}

// FlowAnalysis is a forward dataflow problem over a CFG.
type FlowAnalysis interface {
	// Entry returns the state on function entry.
	Entry() FlowState
	// Transfer pushes state through one node of a block.
	Transfer(node ast.Node, in FlowState) FlowState
}

// ReversePostorder returns the blocks in reverse postorder from the entry
// block — the iteration order under which forward dataflow on reducible
// graphs converges in few passes. Unreachable blocks are omitted.
func (g *CFG) ReversePostorder() []*Block {
	if len(g.Blocks) == 0 {
		return nil
	}
	seen := make([]bool, len(g.Blocks))
	var post []*Block
	var dfs func(*Block)
	dfs = func(blk *Block) {
		seen[blk.Index] = true
		for _, s := range blk.Succs {
			if s.Index >= 0 && !seen[s.Index] {
				dfs(s)
			}
		}
		post = append(post, blk)
	}
	dfs(g.Blocks[0])
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// Forward iterates the analysis to a fixpoint and returns each reachable
// block's entry state. The caller replays Transfer over a block's nodes to
// observe intermediate states (the reporting pass).
func (g *CFG) Forward(a FlowAnalysis) map[*Block]FlowState {
	rpo := g.ReversePostorder()
	in := map[*Block]FlowState{}
	if len(rpo) == 0 {
		return in
	}
	in[rpo[0]] = a.Entry()
	// Iterate RPO sweeps until stable. Lattices used here are small
	// (finite powersets per variable), so termination is structural.
	for changed := true; changed; {
		changed = false
		for _, blk := range rpo {
			st, ok := in[blk]
			if !ok {
				continue // unreached so far
			}
			out := st
			for _, n := range blk.Nodes {
				out = a.Transfer(n, out)
			}
			for _, s := range blk.Succs {
				if s == g.Exit {
					continue
				}
				prev, ok := in[s]
				if !ok {
					in[s] = out.Join(nil)
					changed = true
					continue
				}
				joined := prev.Join(out)
				if !joined.Equal(prev) {
					in[s] = joined
					changed = true
				}
			}
		}
	}
	return in
}
