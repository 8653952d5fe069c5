package analysis

import (
	"go/ast"
)

// spanStartFuncs are the telemetry methods that mint an owned *Span. The
// caller that starts a span owns its End: a span that never Ends is never
// handed to the Recorder, so it silently vanishes from traces and — worse
// — from the always-on flight recorder ring that postmortems depend on.
var spanStartFuncs = map[string]bool{
	"StartSpan":       true,
	"StartRemoteSpan": true,
	"Child":           true,
}

// SpanEnd enforces the span-lifetime contract from DESIGN §6/§11: every
// span acquired via Recorder.StartSpan / StartRemoteSpan / Span.Child
// must reach End() on all paths out of the
// acquiring function — either a defer span.End() or an explicit End on
// every return. Handing the span elsewhere (returning it, storing it in a
// struct or context, capturing it in a goroutine) transfers the
// obligation and is accepted; discarding the result outright is reported
// immediately. The check is flow-sensitive over the package's CFG layer,
// so a span Ended on one branch but leaked on the other is caught.
//
// internal/telemetry itself is exempt: the implementation package
// constructs, wraps, and deliberately half-opens spans while testing the
// lifecycle it provides to everyone else.
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc: "every Recorder.StartSpan/StartRemoteSpan/Span.Child span must reach End() " +
		"on all paths (defer or every return) or escape to a new owner",
	Run: runSpanEnd,
}

// isSpanStart reports whether call mints an owned span.
func isSpanStart(call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && spanStartFuncs[sel.Sel.Name]
}

// isSpanEnd reports whether call is obj.End().
func isSpanEnd(call *ast.CallExpr, obj *ast.Object) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != "End" || len(call.Args) != 0 {
		return false
	}
	id := directIdent(sel.X)
	return id != nil && id.Obj == obj
}

func runSpanEnd(pass *Pass) {
	if pass.Path == "internal/telemetry" {
		return
	}
	runOwnership(pass)
}
