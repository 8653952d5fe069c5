package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ctxExemptNames are exported methods that conventionally block briefly
// without a context: terminators (Close/Stop/Shutdown release blocked
// callers rather than join them).
var ctxExemptNames = map[string]bool{
	"Close": true, "Stop": true, "Shutdown": true,
}

// ctxAllowedPkgs may block without a context: the clock substrate is the
// thing contexts are *implemented* on top of.
var ctxAllowedPkgs = map[string]bool{
	"internal/clock": true,
}

// CtxBlocking enforces the cancellable-API invariant: an exported function
// or method that can block indefinitely — it performs a channel send or
// receive, a select without a default, or ranges over a channel — must
// accept a context.Context so callers (fleet lifecycle, scale operations,
// transport calls) can bound it. Convenience wrappers that delegate to a
// ctx-taking variant (e.g. Call → CallCtx(context.Background(), ...)) pass
// automatically because the wrapper body holds no blocking operation
// itself; only the function that owns the blocking op must take the ctx.
var CtxBlocking = &Analyzer{
	Name: "ctxblocking",
	Doc: "exported functions containing direct blocking channel operations " +
		"must accept a context.Context (terminators Close/Stop/Shutdown exempt)",
	Run: runCtxBlocking,
}

func runCtxBlocking(pass *Pass) {
	if ctxAllowedPkgs[pass.Path] {
		return
	}
	for _, f := range pass.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if !fd.Name.IsExported() || ctxExemptNames[fd.Name.Name] {
				continue
			}
			if hasCtxParam(pass, f, fd.Type) {
				continue
			}
			if pos, what, ok := firstBlockingOp(pass, fd.Body); ok {
				pass.Reportf(pos,
					"exported %s blocks (%s) but takes no context.Context; add a ctx parameter or move the blocking op behind a ctx-taking variant",
					fd.Name.Name, what)
			}
		}
	}
}

// hasCtxParam reports whether any parameter's type is context.Context.
func hasCtxParam(pass *Pass, f *File, ft *ast.FuncType) bool {
	if ft.Params == nil {
		return false
	}
	for _, field := range ft.Params.List {
		sel, ok := field.Type.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Context" {
			continue
		}
		if id, ok := sel.X.(*ast.Ident); ok && pass.ImportedPath(f, id) == "context" {
			return true
		}
	}
	return false
}

// firstBlockingOp finds the first operation in body that can block the
// calling goroutine indefinitely. Function literals are skipped: a literal
// may run on another goroutine or carry its own analysis when invoked, and
// flagging through them would punish the common go-func pattern that is
// precisely how blocking work is moved off the caller.
func firstBlockingOp(pass *Pass, body *ast.BlockStmt) (pos token.Pos, what string, found bool) {
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			pos, what, found = n.Pos(), "channel send", true
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				pos, what, found = n.Pos(), "channel receive", true
			}
		case *ast.SelectStmt:
			// The comm operations belong to the select: a select with a
			// default is non-blocking even though its cases send and
			// receive, so only the clause bodies are scanned generically.
			if !selectHasDefault(n) {
				pos, what, found = n.Pos(), "select without default", true
				return false
			}
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok {
					for _, s := range cc.Body {
						ast.Inspect(s, visit)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if pass.Info != nil {
				if tv, ok := pass.Info.Types[n.X]; ok && tv.Type != nil {
					if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
						pos, what, found = n.Pos(), "range over channel", true
					}
				}
			}
		}
		return !found
	}
	ast.Inspect(body, visit)
	return pos, what, found
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}
