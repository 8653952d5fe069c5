package analysis

import (
	"go/ast"
	"sort"
)

// clockBanned are the time-package functions that read or wait on wall
// time. time.Duration / time.Time type references and constructors like
// time.Date remain fine — the contract is about *observing* time, not
// naming it.
var clockBanned = map[string]bool{
	"Sleep": true, "After": true, "AfterFunc": true, "Now": true,
	"NewTimer": true, "NewTicker": true, "Tick": true, "Since": true,
	"Until": true,
}

// clockAllowedPkgs are the only packages that may touch the time package
// directly: the clock substrate itself, whose virtual clock (Sim) carries
// its own discrete-event engine.
var clockAllowedPkgs = map[string]bool{
	"internal/clock": true,
}

// ClockAllowedPackages returns the sorted allowlist of packages that may
// touch the time package directly. Exported so a test (run in CI) can pin
// the allowlist: it must never grow silently, because every package outside
// it — telemetry and its flight recorder included — is what keeps traces on
// exact virtual time and chaos replays deterministic.
func ClockAllowedPackages() []string {
	pkgs := make([]string, 0, len(clockAllowedPkgs))
	for p := range clockAllowedPkgs {
		pkgs = append(pkgs, p)
	}
	sort.Strings(pkgs)
	return pkgs
}

// ClockPolicy enforces the unified-time invariant across the whole tree:
// no non-test file outside the clock substrate may read or wait on wall
// time directly — all timing must flow through an injected clock.Clock so
// the entire stack runs identically on simulated time, traces carry exact
// virtual timestamps, and chaos runs replay deterministically. This
// subsumes the per-package grep and hand-rolled AST test that previously
// guarded only five packages.
var ClockPolicy = &Analyzer{
	Name: "clockpolicy",
	Doc: "forbid direct time.Now/Sleep/After/... calls outside internal/clock; " +
		"inject a clock.Clock instead",
	Run: runClockPolicy,
}

func runClockPolicy(pass *Pass) {
	if clockAllowedPkgs[pass.Path] {
		return
	}
	for _, f := range pass.Files {
		if f.Test {
			continue
		}
		file := f
		ast.Inspect(f.AST, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			id, ok := sel.X.(*ast.Ident)
			if !ok || !clockBanned[sel.Sel.Name] {
				return true
			}
			if pass.ImportedPath(file, id) != "time" {
				return true
			}
			pass.Reportf(call.Pos(),
				"direct wall-clock call time.%s; route timing through an injected clock.Clock (clock.Wall{} in production paths)",
				sel.Sel.Name)
			return true
		})
	}
}
