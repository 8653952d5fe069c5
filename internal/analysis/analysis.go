// Package analysis is a small, stdlib-only static-analysis framework that
// mechanically enforces the project invariants the runtime's correctness
// claims rest on: all timing flows through an injected clock.Clock, all
// randomness comes from an explicitly seeded source (so chaos and soak runs
// replay byte-identically from a seed), blocking exported APIs are
// cancellable via context.Context, and concurrency patterns known to
// deadlock or mask test failures are rejected at review time.
//
// The framework deliberately mirrors the shape of golang.org/x/tools'
// go/analysis — an Analyzer with a Run function over a Pass that reports
// Diagnostics — but is built on go/parser + go/ast + go/types alone, since
// the module carries no external dependencies. Analyzers are registered in
// registry.go, driven by the Run function here, exercised by golden
// `// want "..."` tests under testdata/, and enforced in CI through
// cmd/elan-vet.
//
// Suppression: a finding may be waived on a specific line with a trailing
//
//	//elan:vet-allow <analyzer> — <justification>
//
// comment. Waivers are deliberate, reviewable artifacts: the analyzer name
// must match, the justification is mandatory by convention, and a waiver
// that suppresses nothing is itself reported.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named invariant check. Run inspects a single package via
// the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the short identifier used by -analyzer flags, pragma
	// suppressions, and diagnostic output.
	Name string
	// Doc is a one-paragraph description of the contract enforced and
	// why it exists.
	Doc string
	// Run executes the check over one package.
	Run func(*Pass)
}

// Diagnostic is a single finding, positioned for `file:line:col: message`
// rendering so CI logs are clickable.
type Diagnostic struct {
	Pos      token.Position
	Message  string
	Analyzer string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
}

// File is one parsed source file of a package.
type File struct {
	AST *ast.File
	// Name is the file's path as handed to the parser.
	Name string
	// Test reports whether the file is a *_test.go file.
	Test bool
}

// Pass carries one package's parse and type-check results to an analyzer.
// Type information covers non-test files only (test files — including
// external _test packages — are parsed but not type-checked); analyzers
// that inspect test files must work syntactically there.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Path is the package's import path relative to the module root,
	// e.g. "internal/transport". Analyzers use it for scope allowlists.
	Path string
	// Files holds every parsed file, test and non-test.
	Files []*File
	// Pkg and Info are the best-effort type-check results. Imports
	// outside the package are stubbed (see load.go), so cross-package
	// member lookups do not resolve; package-name identifiers still
	// resolve to *types.PkgName with correct import paths.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
		Analyzer: p.Analyzer.Name,
	})
}

// ImportedPath resolves an identifier that syntactically qualifies a
// selector (e.g. the `time` in time.Now) to the import path it names, or
// "" if the identifier is not an imported package name in that position —
// for example when shadowed by a local variable. Resolution prefers type
// info and falls back to the file's import table for files that were not
// type-checked.
func (p *Pass) ImportedPath(file *File, id *ast.Ident) string {
	if p.Info != nil {
		if obj, ok := p.Info.Uses[id]; ok {
			if pn, ok := obj.(*types.PkgName); ok {
				return pn.Imported().Path()
			}
			return ""
		}
	}
	// Syntactic fallback (test files): reject identifiers the parser
	// resolved to a local object, then consult the import table.
	if id.Obj != nil {
		return ""
	}
	for _, imp := range file.AST.Imports {
		path := strings.Trim(imp.Path.Value, `"`)
		name := path
		if i := strings.LastIndex(path, "/"); i >= 0 {
			name = path[i+1:]
		}
		if imp.Name != nil {
			name = imp.Name.Name
		}
		if name == id.Name {
			return path
		}
	}
	return ""
}

// allowPragma matches `//elan:vet-allow <name>[,<name>...] — <justification>`
// suppression comments. The analyzer list is mandatory; the em-dash-separated
// justification is captured so the waiver inventory (CollectAllows,
// `elan-vet -report-allows`) can audit it — CI rejects waivers whose
// justification is empty.
// Like Go's own build pragmas, the marker must start the comment — prose
// that merely quotes the syntax does not waive anything.
var allowPragma = regexp.MustCompile(`^//elan:vet-allow\s+([a-z0-9_,]+)(?:\s*—\s*(.*\S))?`)

// Allow is one `//elan:vet-allow` waiver pragma found in a package: which
// analyzers it silences, where, and why. An empty Justification means the
// pragma has no `— why` clause and should be rejected by CI.
type Allow struct {
	Pos           token.Position
	Analyzers     []string
	Justification string
}

// packageAllows lists pkg's waiver pragmas in source order.
func packageAllows(pkg *Package) []Allow {
	var out []Allow
	for _, f := range pkg.Files {
		for _, cg := range f.AST.Comments {
			for _, c := range cg.List {
				m := allowPragma.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				out = append(out, Allow{
					Pos:           pkg.Fset.Position(c.Pos()),
					Analyzers:     strings.Split(m[1], ","),
					Justification: strings.TrimSpace(m[2]),
				})
			}
		}
	}
	return out
}

// CollectAllows inventories every waiver pragma in pkgs, sorted by file then
// line. Waivers are deliberate, reviewable artifacts; surfacing them as a
// single list (`elan-vet -report-allows`) keeps suppressions from rotting
// silently in comment trivia.
func CollectAllows(pkgs []*Package) []Allow {
	var out []Allow
	for _, pkg := range pkgs {
		out = append(out, packageAllows(pkg)...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		return a.Pos.Line < b.Pos.Line
	})
	return out
}

// waiver keys one analyzer name of a pragma by the line it sits on.
type waiver struct {
	file     string
	line     int
	analyzer string
}

// Run executes each analyzer over each package and returns the surviving
// diagnostics sorted by file, line, then column. A pragma naming an
// analyzer that ran and suppressed nothing on its line is itself reported.
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	var out []Diagnostic
	for _, pkg := range pkgs {
		allows := packageAllows(pkg)
		used := map[waiver]bool{} // present: waived on that line; true: suppressed a finding
		for _, al := range allows {
			for _, name := range al.Analyzers {
				used[waiver{al.Pos.Filename, al.Pos.Line, name}] = false
			}
		}
		ran := map[string]bool{}
		for _, a := range analyzers {
			ran[a.Name] = true
			var diags []Diagnostic
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Path:     pkg.Path,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &diags,
			}
			a.Run(pass)
			for _, d := range diags {
				w := waiver{d.Pos.Filename, d.Pos.Line, d.Analyzer}
				if _, ok := used[w]; ok {
					used[w] = true
					continue
				}
				out = append(out, d)
			}
		}
		for _, al := range allows {
			for _, name := range al.Analyzers {
				if ran[name] && !used[waiver{al.Pos.Filename, al.Pos.Line, name}] {
					out = append(out, Diagnostic{
						Pos:      al.Pos,
						Message:  "//elan:vet-allow " + name + " waives nothing: no " + name + " finding on this line",
						Analyzer: name,
					})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}
