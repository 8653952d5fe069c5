package analysis_test

import (
	"strings"
	"testing"

	"github.com/elan-sys/elan/internal/analysis"
	"github.com/elan-sys/elan/internal/analysis/analysistest"
)

const testdata = "testdata/src"

func TestClockPolicy(t *testing.T) {
	analysistest.Run(t, testdata, "clockpolicy", analysis.ClockPolicy)
}

func TestClockPolicyAllowlistedPackage(t *testing.T) {
	// The same kind of code, loaded under the allowlisted internal/clock
	// path, yields no diagnostics: the substrate may touch time directly.
	analysistest.Run(t, testdata, "internal/clock", analysis.ClockPolicy)
}

func TestGlobalRand(t *testing.T) {
	analysistest.Run(t, testdata, "globalrand", analysis.GlobalRand)
}

func TestCtxBlocking(t *testing.T) {
	analysistest.Run(t, testdata, "ctxblocking", analysis.CtxBlocking)
}

func TestLockHeld(t *testing.T) {
	analysistest.Run(t, testdata, "lockheld", analysis.LockHeld)
}

func TestGoroutineFatal(t *testing.T) {
	analysistest.Run(t, testdata, "goroutinefatal", analysis.GoroutineFatal)
}

func TestSpanEnd(t *testing.T) {
	analysistest.Run(t, testdata, "spanend", analysis.SpanEnd)
}

func TestErrIdentity(t *testing.T) {
	analysistest.Run(t, testdata, "erridentity", analysis.ErrIdentity)
}

func TestHotPathAlloc(t *testing.T) {
	analysistest.Run(t, testdata, "hotpathalloc", analysis.HotPathAlloc)
}

func TestStaleWaiver(t *testing.T) {
	analysistest.Run(t, testdata, "allowstale", analysis.HotPathAlloc)
}

// TestCommaWaiverCoversMultipleAnalyzers checks that one
// `//elan:vet-allow a,b — why` pragma silences same-line diagnostics from
// every listed analyzer, and only those: the unwaived control line in the
// same package must still report both.
func TestCommaWaiverCoversMultipleAnalyzers(t *testing.T) {
	pkgs, err := analysis.LoadPackages(testdata, "allowmulti")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := analysis.Run(analysis.All(), pkgs)
	byAnalyzer := map[string]int{}
	for _, d := range diags {
		byAnalyzer[d.Analyzer]++
		if !strings.Contains(d.String(), "a.go:25") {
			t.Errorf("diagnostic outside the unwaived control line: %s", d)
		}
	}
	if byAnalyzer["clockpolicy"] != 1 || byAnalyzer["hotpathalloc"] != 1 || len(diags) != 2 {
		t.Fatalf("got %v (%d diagnostics), want exactly one clockpolicy and one hotpathalloc from the control line", byAnalyzer, len(diags))
	}
}

// TestCollectAllows checks the waiver inventory captures positions,
// analyzer lists (including the comma form), and justifications.
func TestCollectAllows(t *testing.T) {
	pkgs, err := analysis.LoadPackages(testdata, "allowmulti")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	allows := analysis.CollectAllows(pkgs)
	if len(allows) != 1 {
		t.Fatalf("got %d waivers, want 1: %+v", len(allows), allows)
	}
	a := allows[0]
	if len(a.Analyzers) != 2 || a.Analyzers[0] != "clockpolicy" || a.Analyzers[1] != "hotpathalloc" {
		t.Errorf("Analyzers = %v, want [clockpolicy hotpathalloc]", a.Analyzers)
	}
	if a.Justification != "testdata: comma waiver form covers both analyzers" {
		t.Errorf("Justification = %q: em-dash clause not captured", a.Justification)
	}
	if a.Pos.Line == 0 || !strings.HasSuffix(a.Pos.Filename, "a.go") {
		t.Errorf("Pos not captured: %+v", a.Pos)
	}
}

// TestCleanPackageYieldsZeroDiagnostics drives the whole suite over a
// package that honors every invariant.
func TestCleanPackageYieldsZeroDiagnostics(t *testing.T) {
	pkgs, err := analysis.LoadPackages(testdata, "clean")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if diags := analysis.Run(analysis.All(), pkgs); len(diags) != 0 {
		for _, d := range diags {
			t.Errorf("unexpected: %s", d)
		}
	}
}

func TestByName(t *testing.T) {
	all, err := analysis.ByName()
	if err != nil || len(all) != 8 {
		t.Fatalf("ByName() = %d analyzers, err %v; want 8, nil", len(all), err)
	}
	one, err := analysis.ByName("clockpolicy")
	if err != nil || len(one) != 1 || one[0] != analysis.ClockPolicy {
		t.Fatalf("ByName(clockpolicy) = %v, %v", one, err)
	}
	if _, err := analysis.ByName("nope"); err == nil || !strings.Contains(err.Error(), "unknown analyzer") {
		t.Fatalf("ByName(nope) err = %v, want unknown-analyzer error", err)
	}
}

// TestLoadPackagesRecursive checks ./...-style pattern expansion skips
// testdata directories (otherwise the intentional violations in this very
// package's testdata would fail the tree-wide run).
func TestLoadPackagesRecursive(t *testing.T) {
	root, err := analysis.ModuleRoot(".")
	if err != nil {
		t.Fatalf("ModuleRoot: %v", err)
	}
	pkgs, err := analysis.LoadPackages(root, "./...")
	if err != nil {
		t.Fatalf("LoadPackages: %v", err)
	}
	if len(pkgs) < 20 {
		t.Fatalf("only %d packages loaded from module root", len(pkgs))
	}
	for _, p := range pkgs {
		if strings.Contains(p.Path, "testdata") {
			t.Errorf("testdata package loaded: %s", p.Path)
		}
	}
}
