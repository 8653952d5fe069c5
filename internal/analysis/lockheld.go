package analysis

import (
	"bytes"
	"go/ast"
	"go/printer"
	"go/token"
)

// lockBlockingCalls are method names from this codebase's known-blocking
// set: clock sleeps, reliable transport calls, collective operations, and
// the ddp reducer's steps, which run them.
// Calling any of them — or touching a channel — while a mutex acquired in
// the same function is still held is how the pre-PR3 adjustment deadlocks
// happened: the lock holder waits on a peer that needs the lock to make
// progress. Matching is by name, so names that also belong to non-blocking
// calls made under a lock (sync.Cond.Broadcast) stay out.
var lockBlockingCalls = map[string]bool{
	"Sleep": true, "Call": true, "CallCtx": true, "CallRetry": true,
	"AllReduce": true, "AllReduceMean": true, "AllReduceMeanBucket": true,
	"ReduceScatterMeanBucket": true, "ReduceScatterMeanCommit": true,
	"BackwardAllReduce": true, "BackwardStep": true,
}

// LockHeld flags blocking operations performed while a sync.Mutex/RWMutex
// acquired in the same function is provably still held: a channel send or
// receive, a select without default, or a call into the known-blocking set,
// reached after an x.Lock()/x.RLock() with no intervening x.Unlock() and no
// defer x.Unlock() scheduled. The analysis is per-function and
// flow-conservative: branch bodies are scanned with a copy of the held
// set, function literals are independent analysis units, and go statements
// are skipped (their bodies run on other goroutines).
var LockHeld = &Analyzer{
	Name: "lockheld",
	Doc: "forbid channel operations and known-blocking calls while a mutex " +
		"acquired in the same function is still held without an Unlock or defer Unlock",
	Run: runLockHeld,
}

func runLockHeld(pass *Pass) {
	for _, f := range pass.Files {
		if f.Test {
			continue
		}
		ast.Inspect(f.AST, func(n ast.Node) bool {
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
				lh := &lockScan{pass: pass, fset: pass.Fset}
				lh.block(body.List, map[string]token.Pos{})
			}
			return true // descend: nested literals get their own scan
		})
	}
}

type lockScan struct {
	pass *Pass
	fset *token.FileSet
}

// exprKey renders the receiver expression of a Lock/Unlock call ("s.mu",
// "mu") so acquire and release sites pair up textually.
func exprKey(fset *token.FileSet, e ast.Expr) string {
	var buf bytes.Buffer
	if err := printer.Fprint(&buf, fset, e); err != nil {
		return ""
	}
	return buf.String()
}

// lockOp classifies a call as a mutex acquire/release on a receiver key.
func lockOp(fset *token.FileSet, call *ast.CallExpr) (key, op string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) != 0 {
		return "", ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return exprKey(fset, sel.X), "lock"
	case "Unlock", "RUnlock":
		return exprKey(fset, sel.X), "unlock"
	}
	return "", ""
}

// block scans a statement list in order, mutating held as locks are
// acquired and released.
func (ls *lockScan) block(stmts []ast.Stmt, held map[string]token.Pos) {
	for _, s := range stmts {
		ls.stmt(s, held)
	}
}

func copyHeld(held map[string]token.Pos) map[string]token.Pos {
	c := make(map[string]token.Pos, len(held))
	for k, v := range held {
		c[k] = v
	}
	return c
}

func (ls *lockScan) stmt(s ast.Stmt, held map[string]token.Pos) {
	switch s := s.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op := lockOp(ls.fset, call); key != "" {
				if op == "lock" {
					held[key] = call.Pos()
				} else {
					delete(held, key)
				}
				return
			}
		}
		ls.expr(s.X, held)
	case *ast.DeferStmt:
		// defer x.Unlock() — directly or inside a deferred literal —
		// discharges the obligation for the rest of the function.
		if key, op := lockOp(ls.fset, s.Call); op == "unlock" {
			delete(held, key)
			return
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(fl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if key, op := lockOp(ls.fset, call); op == "unlock" {
						delete(held, key)
					}
				}
				return true
			})
		}
	case *ast.GoStmt:
		// Runs on another goroutine; its body is scanned as its own unit.
	case *ast.SendStmt:
		ls.report(s.Pos(), "channel send", held)
		ls.expr(s.Chan, held)
		ls.expr(s.Value, held)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			ls.expr(e, held)
		}
		for _, e := range s.Lhs {
			ls.expr(e, held)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			ls.expr(e, held)
		}
	case *ast.IncDecStmt:
		ls.expr(s.X, held)
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						ls.expr(e, held)
					}
				}
			}
		}
	case *ast.IfStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		ls.expr(s.Cond, held)
		ls.block(s.Body.List, copyHeld(held))
		if s.Else != nil {
			ls.stmt(s.Else, copyHeld(held))
		}
	case *ast.ForStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Cond != nil {
			ls.expr(s.Cond, held)
		}
		ls.block(s.Body.List, copyHeld(held))
	case *ast.RangeStmt:
		ls.expr(s.X, held)
		ls.block(s.Body.List, copyHeld(held))
	case *ast.SelectStmt:
		if !selectHasDefault(s) {
			ls.report(s.Pos(), "select without default", held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				ls.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.SwitchStmt:
		if s.Init != nil {
			ls.stmt(s.Init, held)
		}
		if s.Tag != nil {
			ls.expr(s.Tag, held)
		}
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range s.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				ls.block(cc.Body, copyHeld(held))
			}
		}
	case *ast.BlockStmt:
		ls.block(s.List, held)
	case *ast.LabeledStmt:
		ls.stmt(s.Stmt, held)
	}
}

// expr scans an expression for blocking operations, skipping function
// literals (independent units).
func (ls *lockScan) expr(e ast.Expr, held map[string]token.Pos) {
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				ls.report(n.Pos(), "channel receive", held)
			}
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && lockBlockingCalls[sel.Sel.Name] {
				ls.report(n.Pos(), "blocking call "+sel.Sel.Name, held)
			}
		}
		return true
	})
}

func (ls *lockScan) report(pos token.Pos, what string, held map[string]token.Pos) {
	for key := range held {
		ls.pass.Reportf(pos,
			"%s while %s is held (locked with no intervening Unlock or defer Unlock); release the lock before blocking",
			what, key)
		return // one diagnostic per site, regardless of how many locks are held
	}
}
