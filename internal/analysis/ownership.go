package analysis

import (
	"go/ast"
	"go/token"
)

// This file is the engine behind the spanend analyzer: a forward dataflow
// over the CFG that tracks, per local variable, whether a span started
// into it has reached End, escaped, or is still owed on each path. A span
// handed away (passed to a call, stored, returned, captured) changes
// owners, so that is an escape, and End may repeat.

// ownStatus is a powerset lattice over three facts about a tracked
// variable at a program point. Join is bitwise OR: "may be live" and "may
// be released" coexist after a branch that released on one arm only.
type ownStatus uint8

const (
	ownLive     ownStatus = 1 << iota // acquisition not yet released on some path
	ownReleased                       // released on some path
	ownEscaped                        // ownership handed elsewhere on some path
)

// ownState is the dataflow state: status per tracked variable object.
type ownState struct {
	vars map[*ast.Object]ownStatus
}

func (s *ownState) get(o *ast.Object) ownStatus { return s.vars[o] }

func (s *ownState) clone() *ownState {
	c := &ownState{vars: make(map[*ast.Object]ownStatus, len(s.vars))}
	for k, v := range s.vars {
		c.vars[k] = v
	}
	return c
}

func (s *ownState) Join(other FlowState) FlowState {
	if other == nil {
		return s.clone()
	}
	o := other.(*ownState)
	c := s.clone()
	for k, v := range o.vars {
		c.vars[k] |= v
	}
	return c
}

func (s *ownState) Equal(other FlowState) bool {
	if other == nil {
		return false
	}
	o := other.(*ownState)
	if len(s.vars) != len(o.vars) {
		return false
	}
	for k, v := range s.vars {
		if o.vars[k] != v {
			return false
		}
	}
	return true
}

// ownFinding is one diagnostic candidate, deduplicated by position so the
// fixpoint's repeated transfers do not multiply reports.
type ownFinding struct {
	pos token.Pos
	msg string
}

// ownFlow runs the dataflow over one function body.
type ownFlow struct {
	// acquired remembers each tracked object's acquisition position for
	// the leak message.
	acquired map[*ast.Object]token.Pos
	findings map[token.Pos]string
	// body is the function under analysis; only variables declared inside
	// it are tracked (acquiring into a package-level variable hands
	// ownership to whoever manages that global).
	body *ast.BlockStmt
	// recording is false during fixpoint iteration (intermediate states
	// under-approximate joins and could yield spurious reports) and true
	// only during the final replay pass.
	recording bool
}

// isLocal reports whether the object is declared within the analyzed
// body.
func (f *ownFlow) isLocal(obj *ast.Object) bool {
	decl, ok := obj.Decl.(ast.Node)
	return ok && f.body.Pos() <= decl.Pos() && decl.Pos() <= f.body.End()
}

func (f *ownFlow) Entry() FlowState { return &ownState{vars: map[*ast.Object]ownStatus{}} }

func (f *ownFlow) report(pos token.Pos, msg string) {
	if !f.recording {
		return
	}
	if _, ok := f.findings[pos]; !ok {
		f.findings[pos] = msg
	}
}

// directIdent unwraps parens only: the variable itself, not a projection.
func directIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.ParenExpr:
			e = x.X
		default:
			return nil
		}
	}
}

// Transfer pushes state through one node.
func (f *ownFlow) Transfer(node ast.Node, in FlowState) FlowState {
	st := in.(*ownState).clone()
	switch n := node.(type) {
	case *ast.AssignStmt:
		f.assign(n, st)
	case *ast.ExprStmt:
		if call, ok := n.X.(*ast.CallExpr); ok {
			if isSpanStart(call) {
				f.report(call.Pos(), "span acquired and immediately discarded; the result must reach End()")
				// Nothing to track: the value is gone.
				f.scanUses(call, st, nil)
				return st
			}
			f.call(call, st)
			return st
		}
		f.scanUses(n.X, st, nil)
	case *ast.DeferStmt:
		f.deferStmt(n, st)
	case *ast.SendStmt:
		// The receiver of the channel takes ownership.
		f.scanUses(n.Chan, st, nil)
		f.escapeExpr(n.Value, st)
	case *ast.GoStmt:
		// The goroutine takes ownership of anything it captures.
		f.escapeCaptured(n.Call, st)
	case *ast.ReturnStmt:
		for _, e := range n.Results {
			f.escapeExpr(e, st)
		}
	case *ast.DeclStmt:
		if gd, ok := n.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						f.scanUses(v, st, nil)
					}
				}
			}
		}
	case *ast.IncDecStmt, *ast.RangeStmt, *ast.EmptyStmt, *ast.LabeledStmt:
		// No ownership effect.
	case ast.Expr:
		// Control expressions (if/for conditions, switch tags): uses but
		// no transfer of ownership; method calls on tracked vars are
		// neutral, releases still count.
		f.scanUses(n, st, nil)
	default:
		if s, ok := node.(ast.Stmt); ok {
			ast.Inspect(s, func(x ast.Node) bool {
				if e, ok := x.(ast.Expr); ok {
					f.scanUses(e, st, nil)
					return false
				}
				return true
			})
		}
	}
	return st
}

// assign handles acquisitions (x := acquire()), alias escapes (y := x)
// and stores of tracked values into anything that is not a plain local
// (s.f = x escapes).
func (f *ownFlow) assign(n *ast.AssignStmt, st *ownState) {
	// RHS first: uses, releases, escapes-into-composites.
	acquiredRhs := -1
	if len(n.Rhs) == 1 {
		if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isSpanStart(call) {
			acquiredRhs = 0
			// Arguments of the acquire call are ordinary uses.
			for _, a := range call.Args {
				f.scanUses(a, st, nil)
			}
		}
	}
	if acquiredRhs < 0 {
		for _, e := range n.Rhs {
			// A tracked variable on the RHS of an assignment aliases into
			// the LHS: ownership is no longer solely the variable's.
			f.escapeExpr(e, st)
		}
	}
	for i, lhs := range n.Lhs {
		id := directIdent(lhs)
		if id == nil || id.Obj == nil {
			// Store through a projection (s.f = x, m[k] = x): handled by
			// escapeExpr on the RHS above; stores into tracked var's
			// element (buf[i] = v) are neutral.
			continue
		}
		if acquiredRhs == i {
			if !f.isLocal(id.Obj) {
				continue // acquired into a global: its owner is elsewhere
			}
			if st.get(id.Obj)&ownLive != 0 {
				f.report(n.Rhs[acquiredRhs].Pos(),
					"re-acquiring into "+id.Name+" overwrites a span that has not reached End()")
			}
			st.vars[id.Obj] = ownLive
			if f.acquired == nil {
				f.acquired = map[*ast.Object]token.Pos{}
			}
			f.acquired[id.Obj] = n.Rhs[acquiredRhs].Pos()
			continue
		}
		// Plain reassignment of a tracked variable from something else:
		// the old value is gone. If it was still live, that is a leak.
		if prev, ok := st.vars[id.Obj]; ok && len(n.Rhs) > 0 {
			if prev&ownLive != 0 && prev&(ownReleased|ownEscaped) == 0 && !isNilIdent(rhsFor(n, i)) {
				// Overwriting a definitely-live span with a new value
				// loses the only handle. nil assignment is a deliberate
				// clear and stays flagged at exit instead.
				f.report(n.Pos(), "assignment overwrites a span that has not reached End()")
			}
			delete(st.vars, id.Obj)
		}
	}
}

func rhsFor(n *ast.AssignStmt, i int) ast.Expr {
	if len(n.Rhs) == len(n.Lhs) {
		return n.Rhs[i]
	}
	if len(n.Rhs) == 1 {
		return n.Rhs[0]
	}
	return nil
}

func isNilIdent(e ast.Expr) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == "nil"
}

// deferStmt: a recognized deferred release discharges the obligation from
// this point on every path that reaches it. Deferred closures are scanned
// for releases on tracked variables; any other captured use escapes.
func (f *ownFlow) deferStmt(n *ast.DeferStmt, st *ownState) {
	if f.releaseCall(n.Call, st) {
		return
	}
	if fl, ok := n.Call.Fun.(*ast.FuncLit); ok {
		released := map[*ast.Object]bool{}
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			if call, ok := x.(*ast.CallExpr); ok {
				for obj := range st.vars {
					if isSpanEnd(call, obj) {
						released[obj] = true
					}
				}
			}
			return true
		})
		for obj := range released {
			markReleased(obj, st)
		}
		// Other captured uses inside the deferred body: escape.
		ast.Inspect(fl.Body, func(x ast.Node) bool {
			if id, ok := x.(*ast.Ident); ok && id.Obj != nil && !released[id.Obj] {
				if _, tracked := st.vars[id.Obj]; tracked {
					markEscaped(id.Obj, st)
				}
			}
			return true
		})
		return
	}
	// defer f(x...) with tracked arguments: same rules as a direct call.
	f.call(n.Call, st)
}

// markEscaped performs the escape transition. Escape clears the live
// obligation: ownership now rests with whoever received the value, so
// later re-acquisitions into the same variable are clean and exits do
// not owe a release.
func markEscaped(obj *ast.Object, st *ownState) {
	st.vars[obj] = (st.get(obj) &^ ownLive) | ownEscaped
}

// markReleased performs the release transition. End is idempotent, so a
// second End is not a finding.
func markReleased(obj *ast.Object, st *ownState) {
	st.vars[obj] = (st.get(obj) &^ ownLive) | ownReleased
}

// releaseCall applies a call's release effects; reports whether the call
// was a recognized release of at least one tracked variable.
func (f *ownFlow) releaseCall(call *ast.CallExpr, st *ownState) bool {
	any := false
	for obj := range st.vars {
		if isSpanEnd(call, obj) {
			markReleased(obj, st)
			any = true
		}
	}
	return any
}

// call applies a non-acquire call's effects: releases first, then escape
// for tracked arguments, neutral receiver methods.
func (f *ownFlow) call(call *ast.CallExpr, st *ownState) {
	if f.releaseCall(call, st) {
		return
	}
	for _, a := range call.Args {
		if id := directIdent(a); id != nil && id.Obj != nil {
			if _, tracked := st.vars[id.Obj]; tracked {
				markEscaped(id.Obj, st)
				continue
			}
		}
		f.scanUses(a, st, nil)
	}
	// Nested closures anywhere in the call (arguments or fun position)
	// capture: escape.
	f.escapeCaptured(call, st)
}

// escapeExpr marks every tracked variable mentioned in e as escaped —
// used for returns, sends, RHS aliasing, and stores into
// non-local places.
func (f *ownFlow) escapeExpr(e ast.Expr, st *ownState) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		if call, ok := x.(*ast.CallExpr); ok {
			// return foo(sp): the call sees it first (possibly a release),
			// its result escapes, which is fine.
			f.call(call, st)
			return false
		}
		if id, ok := x.(*ast.Ident); ok && id.Obj != nil {
			if _, tracked := st.vars[id.Obj]; tracked {
				markEscaped(id.Obj, st)
			}
		}
		return true
	})
}

// escapeCaptured marks tracked variables captured by any function literal
// under n as escaped.
func (f *ownFlow) escapeCaptured(n ast.Node, st *ownState) {
	ast.Inspect(n, func(x ast.Node) bool {
		fl, ok := x.(*ast.FuncLit)
		if !ok {
			return true
		}
		ast.Inspect(fl.Body, func(y ast.Node) bool {
			if id, ok := y.(*ast.Ident); ok && id.Obj != nil {
				if _, tracked := st.vars[id.Obj]; tracked {
					markEscaped(id.Obj, st)
				}
			}
			return true
		})
		return false
	})
}

// scanUses walks an expression for release calls and nested acquisitions
// whose results vanish; ordinary mentions of tracked variables (receiver
// method calls, indexing, arithmetic) are neutral. skip suppresses
// descent into one subtree.
func (f *ownFlow) scanUses(e ast.Expr, st *ownState, skip ast.Node) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(x ast.Node) bool {
		if x == skip {
			return false
		}
		switch x := x.(type) {
		case *ast.FuncLit:
			// Closures capture; conservatively escape what they mention.
			f.escapeCaptured(x, st)
			return false
		case *ast.CallExpr:
			if isSpanStart(x) {
				f.report(x.Pos(), "span acquired and immediately discarded; the result must reach End()")
				return true
			}
			if f.releaseCall(x, st) {
				return false
			}
			for _, a := range x.Args {
				if id := directIdent(a); id != nil && id.Obj != nil {
					if _, tracked := st.vars[id.Obj]; tracked {
						markEscaped(id.Obj, st)
					}
				}
			}
		}
		return true
	})
}

// runOwnership drives the engine over every function in the package.
func runOwnership(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file.AST, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch n := n.(type) {
			case *ast.FuncDecl:
				body = n.Body
			case *ast.FuncLit:
				body = n.Body
			default:
				return true
			}
			if body != nil {
				checkOwnership(pass, body)
			}
			return true // nested literals analyzed as their own units
		})
	}
}

// checkOwnership analyzes one function body.
func checkOwnership(pass *Pass, body *ast.BlockStmt) {
	flow := &ownFlow{
		findings: map[token.Pos]string{},
		body:     body,
	}
	g := NewCFG(body)
	entry := g.Forward(flow)

	// Reporting pass: replay transfers with final entry states, then
	// check obligations on non-panic exits.
	flow.recording = true
	for _, blk := range g.ReversePostorder() {
		st, ok := entry[blk]
		if !ok {
			continue
		}
		out := st
		for _, n := range blk.Nodes {
			out = flow.Transfer(n, out)
		}
		if blk.Exit == ExitReturn || blk.Exit == ExitFall {
			final := out.(*ownState)
			for obj, status := range final.vars {
				// May-leak: the span is live on at least one path into
				// this exit and its ownership never left the function. A
				// release on one branch does not excuse the other branch.
				if status&ownLive != 0 && status&ownEscaped == 0 {
					pos := flow.acquired[obj]
					if pos == token.NoPos {
						pos = body.Pos()
					}
					flow.report(pos, leakMessage(obj.Name, blk.Exit))
				}
			}
		}
	}
	for pos, msg := range flow.findings {
		pass.Reportf(pos, "%s", msg)
	}
}

// leakMessage builds the all-paths diagnostic.
func leakMessage(name string, kind ExitKind) string {
	where := "a return path"
	if kind == ExitFall {
		where = "the end of the function"
	}
	return "span assigned to " + name + " does not reach End() on every path: leaked at " + where
}
