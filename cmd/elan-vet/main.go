// elan-vet mechanically enforces the project's static invariants: the
// clock-injection contract behind deterministic simulation, seeded
// randomness behind replayable chaos runs, context-cancellable blocking
// APIs, no blocking under held mutexes, no test-masking t.Fatal in
// goroutines, span lifetimes that always reach End, errors.Is instead of
// sentinel identity, and allocation-free //elan:hotpath functions.
//
// Usage:
//
//	elan-vet [-analyzer name[,name...]] [-json] [-list] [-report-allows] [packages]
//
// Packages default to ./... resolved against the enclosing module root.
// Findings print as file:line:col: message (analyzer) — or, with -json, as
// a JSON array with stable field order (file, line, col, analyzer, message)
// — and any finding makes the exit status 1, so CI can run
// `go run ./cmd/elan-vet ./...` as a required job. A finding may be waived
// on its line with a justified `//elan:vet-allow <analyzer> — why` comment;
// -report-allows prints the full waiver inventory as JSON instead of
// running the analyzers, so CI can archive it and reject waivers whose
// justification is empty.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/elan-sys/elan/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonDiag fixes the field order of -json output: file, line, col,
// analyzer, message. encoding/json emits struct fields in declaration
// order, so this order is a stable interface for jq pipelines in CI.
type jsonDiag struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// jsonAllow is one waiver in -report-allows output.
type jsonAllow struct {
	File          string   `json:"file"`
	Line          int      `json:"line"`
	Analyzers     []string `json:"analyzers"`
	Justification string   `json:"justification"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("elan-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	analyzerFlag := fs.String("analyzer", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list registered analyzers and exit")
	jsonOut := fs.Bool("json", false, "emit diagnostics as a JSON array on stdout")
	reportAllows := fs.Bool("report-allows", false, "print the //elan:vet-allow waiver inventory as JSON and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, a := range analysis.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *analyzerFlag != "" {
		names = strings.Split(*analyzerFlag, ",")
	}
	analyzers, err := analysis.ByName(names...)
	if err != nil {
		fmt.Fprintf(stderr, "elan-vet: %v\n", err)
		return 2
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(stderr, "elan-vet: %v\n", err)
		return 2
	}
	root, err := analysis.ModuleRoot(cwd)
	if err != nil {
		fmt.Fprintf(stderr, "elan-vet: %v\n", err)
		return 2
	}
	// Resolve patterns relative to cwd but load with module-relative
	// paths, so allowlists keyed on "internal/clock" hold wherever the
	// tool is invoked from.
	rel, err := filepath.Rel(root, cwd)
	if err != nil {
		rel = "."
	}
	for i, p := range patterns {
		patterns[i] = filepath.ToSlash(filepath.Join(rel, p))
	}

	pkgs, err := analysis.LoadPackages(root, patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "elan-vet: %v\n", err)
		return 2
	}

	if *reportAllows {
		allows := analysis.CollectAllows(pkgs)
		rows := make([]jsonAllow, 0, len(allows))
		for _, a := range allows {
			rows = append(rows, jsonAllow{
				File:          relPath(cwd, a.Pos.Filename),
				Line:          a.Pos.Line,
				Analyzers:     a.Analyzers,
				Justification: a.Justification,
			})
		}
		return emitJSON(stdout, stderr, rows, 0)
	}

	diags := analysis.Run(analyzers, pkgs)
	for i := range diags {
		// Print paths relative to the invocation directory so CI log
		// lines are short and clickable.
		diags[i].Pos.Filename = relPath(cwd, diags[i].Pos.Filename)
	}

	exit := 0
	if len(diags) > 0 {
		exit = 1
	}
	if *jsonOut {
		rows := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			rows = append(rows, jsonDiag{
				File:     d.Pos.Filename,
				Line:     d.Pos.Line,
				Col:      d.Pos.Column,
				Analyzer: d.Analyzer,
				Message:  d.Message,
			})
		}
		return emitJSON(stdout, stderr, rows, exit)
	}
	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if exit != 0 {
		fmt.Fprintf(stderr, "elan-vet: %d finding(s)\n", len(diags))
	}
	return exit
}

// emitJSON marshals v (an initialized, possibly empty slice — so a clean
// run prints `[]`, never `null`) with indentation for diffable artifacts.
func emitJSON(stdout, stderr io.Writer, v any, exit int) int {
	enc := json.NewEncoder(stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fmt.Fprintf(stderr, "elan-vet: encode: %v\n", err)
		return 2
	}
	return exit
}

func relPath(cwd, name string) string {
	if r, err := filepath.Rel(cwd, name); err == nil && !strings.HasPrefix(r, "..") {
		return r
	}
	return name
}
