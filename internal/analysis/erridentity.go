package analysis

import (
	"go/ast"
	"go/token"
	"regexp"
)

// ErrIdentity enforces the sentinel-identity contract from DESIGN §12:
// exported Err* sentinels are compared with errors.Is, never with == / !=
// / switch-case identity. PR 8 made sentinel identity survive the TCP
// wire precisely by wrapping (HandlerError's Unwrap restores the
// sentinel), which means a raw pointer comparison that happens to pass
// today over the in-process bus silently breaks the moment the same call
// crosses the TCP path — the error is then a wrapper around the
// sentinel, not the sentinel itself. errors.Is is the single contract
// that holds on both paths, so identity comparisons are rejected
// everywhere, test files included (tests encode the contract consumers
// copy).
//
// Comparisons against nil and non-sentinel values are untouched; the
// check keys on the exported-sentinel naming convention (Err followed by
// an upper-case letter), matching both bare identifiers (ErrClosed) and
// package-qualified selectors (transport.ErrClosed).
var ErrIdentity = &Analyzer{
	Name: "erridentity",
	Doc: "compare exported Err* sentinels with errors.Is, never ==/!=/switch " +
		"(raw identity breaks across the TCP wire's error wrapping)",
	Run: runErrIdentity,
}

// sentinelRe matches the exported sentinel naming convention.
var sentinelRe = regexp.MustCompile(`^Err[A-Z]`)

// sentinelExpr reports whether e names an exported Err* sentinel,
// unwrapping one level of package qualification.
func sentinelExpr(e ast.Expr) bool {
	switch x := e.(type) {
	case *ast.Ident:
		return sentinelRe.MatchString(x.Name)
	case *ast.SelectorExpr:
		if _, ok := x.X.(*ast.Ident); ok {
			return sentinelRe.MatchString(x.Sel.Name)
		}
	}
	return false
}

func runErrIdentity(pass *Pass) {
	for _, f := range pass.Files {
		ast.Inspect(f.AST, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if sentinelExpr(n.X) || sentinelExpr(n.Y) {
					pass.Reportf(n.OpPos,
						"sentinel compared with %s; use errors.Is so identity survives wrapping (and the TCP wire)", n.Op)
				}
			case *ast.SwitchStmt:
				for _, c := range n.Body.List {
					cc, ok := c.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, e := range cc.List {
						if sentinelExpr(e) {
							pass.Reportf(e.Pos(),
								"sentinel matched by switch-case identity; use errors.Is in an if/else chain so identity survives wrapping")
						}
					}
				}
			}
			return true
		})
	}
}
