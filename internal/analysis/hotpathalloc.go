package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// HotPathAlloc turns the runtime AllocsPerRun guards into compile-time
// enforcement: a function whose doc comment carries the line
//
//	//elan:hotpath
//
// declares itself part of the zero-allocation steady state (DESIGN §9) —
// the tensor *Into kernels, the ddp reducer step, the flight-recorder
// record path, the frame read/write path — and must contain no
// alloc-inducing constructs:
//
//   - make, new
//   - heap composite literals: &T{...}, slice literals, map literals
//     (plain value literals like chunkMsg{...} stay on the stack and are
//     allowed)
//   - append whose destination does not derive from a parameter or
//     receiver (growing caller-owned, pre-sized storage is the sanctioned
//     amortized-zero pattern; growing a fresh local is an allocation)
//   - function literals (closures allocate when they capture)
//   - go statements (a goroutine is an allocation; hot paths dispatch to
//     resident helpers instead)
//   - any fmt.* call (fmt boxes every operand), and errors.New
//   - string concatenation and string(...)/[]byte(...) conversions
//   - explicit interface boxing via any(...)/interface{}(...) conversions
//
// An error exit is cold: a return whose last operand is a call to
// fmt.Errorf or errors.New leaves with a fresh non-nil error, so none of
// its operands is scanned. No other return is: `return x, err` and
// `return x, nil` may be the success path, and `return result{err: ...}`
// returns no error. Other cold sub-paths inside a hot function, such as
// the first-call make that primes an arena, are waived line by line with
// a justified //elan:vet-allow hotpathalloc pragma, which keeps every
// deviation from the zero-alloc contract auditable via
// elan-vet -report-allows. Diagnostics name the construct precisely so
// the fix (or the waiver justification) writes itself.
var HotPathAlloc = &Analyzer{
	Name: "hotpathalloc",
	Doc: "functions annotated //elan:hotpath must contain no alloc-inducing " +
		"constructs (make/new/heap literals/append-to-local/closures/fmt/errors.New/string concat)",
	Run: runHotPathAlloc,
}

// hotpathMarker is the annotation line inside a function's doc comment.
const hotpathMarker = "//elan:hotpath"

func runHotPathAlloc(pass *Pass) {
	for _, f := range pass.Files {
		if f.Test {
			continue
		}
		for _, decl := range f.AST.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !isHotPath(fd) {
				continue
			}
			hp := &hotPathScan{pass: pass, file: f, fd: fd}
			hp.check(fd.Body)
		}
	}
}

// isHotPath reports whether the function's doc comment carries the
// marker.
func isHotPath(fd *ast.FuncDecl) bool {
	if fd.Doc == nil {
		return false
	}
	for _, c := range fd.Doc.List {
		if strings.HasPrefix(strings.TrimSpace(c.Text), hotpathMarker) {
			return true
		}
	}
	return false
}

type hotPathScan struct {
	pass *Pass
	file *File
	fd   *ast.FuncDecl
}

// paramObjs collects the objects of parameters and receivers; appends
// into storage reachable from these are the sanctioned pattern.
func (hp *hotPathScan) paramObjs() map[*ast.Object]bool {
	out := map[*ast.Object]bool{}
	add := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, fld := range fl.List {
			for _, name := range fld.Names {
				if name.Obj != nil {
					out[name.Obj] = true
				}
			}
		}
	}
	add(hp.fd.Recv)
	add(hp.fd.Type.Params)
	add(hp.fd.Type.Results)
	return out
}

func (hp *hotPathScan) check(body *ast.BlockStmt) {
	params := hp.paramObjs()
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			hp.pass.Reportf(n.Pos(), "hot path allocates: function literal (closures allocate when they capture); dispatch to a resident helper")
			return false // the literal body is cold by construction
		case *ast.GoStmt:
			hp.pass.Reportf(n.Pos(), "hot path allocates: go statement spawns a goroutine; use a resident worker")
			return true
		case *ast.ReturnStmt:
			return !hp.errorExit(n)
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if _, ok := n.X.(*ast.CompositeLit); ok {
					hp.pass.Reportf(n.Pos(), "hot path allocates: &composite literal escapes to the heap")
					return false
				}
			}
		case *ast.CompositeLit:
			switch n.Type.(type) {
			case *ast.ArrayType:
				if at := n.Type.(*ast.ArrayType); at.Len == nil {
					hp.pass.Reportf(n.Pos(), "hot path allocates: slice literal")
				}
			case *ast.MapType:
				hp.pass.Reportf(n.Pos(), "hot path allocates: map literal")
			}
		case *ast.CallExpr:
			hp.call(n, params)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && hp.isString(n.X, n.Y) {
				hp.pass.Reportf(n.OpPos, "hot path allocates: string concatenation")
			}
		}
		return true
	})
}

func (hp *hotPathScan) call(call *ast.CallExpr, params map[*ast.Object]bool) {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		switch fun.Name {
		case "make":
			hp.pass.Reportf(call.Pos(), "hot path allocates: make")
		case "new":
			hp.pass.Reportf(call.Pos(), "hot path allocates: new")
		case "append":
			if len(call.Args) > 0 && !hp.paramDerived(call.Args[0], params) {
				hp.pass.Reportf(call.Pos(), "hot path allocates: append to a non-parameter slice grows fresh storage; append into caller-owned, pre-sized buffers")
			}
		case "string":
			hp.pass.Reportf(call.Pos(), "hot path allocates: string(...) conversion copies")
		case "any":
			hp.pass.Reportf(call.Pos(), "hot path allocates: any(...) boxes its operand")
		}
	case *ast.SelectorExpr:
		if id, ok := fun.X.(*ast.Ident); ok {
			switch path := hp.pass.ImportedPath(hp.file, id); {
			case path == "fmt":
				hp.pass.Reportf(call.Pos(), "hot path allocates: fmt.%s boxes every operand", fun.Sel.Name)
			case path == "errors" && fun.Sel.Name == "New":
				hp.pass.Reportf(call.Pos(), "hot path allocates: errors.New builds a fresh error; use a package-level sentinel")
			}
		}
	case *ast.ParenExpr:
		if _, ok := fun.X.(*ast.InterfaceType); ok {
			hp.pass.Reportf(call.Pos(), "hot path allocates: conversion to interface type boxes its operand")
		}
	case *ast.ArrayType:
		// []byte(s) / []rune(s) conversions copy.
		if fun.Len == nil {
			hp.pass.Reportf(call.Pos(), "hot path allocates: slice conversion copies")
		}
	}
}

// errorExit reports whether ret leaves with a fresh non-nil error: its
// last operand is a call to fmt.Errorf or errors.New.
func (hp *hotPathScan) errorExit(ret *ast.ReturnStmt) bool {
	if len(ret.Results) == 0 {
		return false
	}
	call, ok := ret.Results[len(ret.Results)-1].(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	switch hp.pass.ImportedPath(hp.file, id) + "." + sel.Sel.Name {
	case "fmt.Errorf", "errors.New":
		return true
	}
	return false
}

// paramDerived reports whether the expression's root identifier is a
// parameter or receiver (s.buf, dst.Data[i:], *bufp all derive).
func (hp *hotPathScan) paramDerived(e ast.Expr, params map[*ast.Object]bool) bool {
	id := rootIdent(e)
	return id != nil && id.Obj != nil && params[id.Obj]
}

// isString reports whether either operand is provably a string: a string
// literal syntactically, or string-typed per the package's type info.
func (hp *hotPathScan) isString(exprs ...ast.Expr) bool {
	for _, e := range exprs {
		if bl, ok := e.(*ast.BasicLit); ok && bl.Kind == token.STRING {
			return true
		}
		if hp.pass.Info != nil {
			if tv, ok := hp.pass.Info.Types[e]; ok && tv.Type != nil {
				if b, ok := tv.Type.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
					return true
				}
			}
		}
	}
	return false
}

// rootIdent peels selectors/indexes/stars/parens/slices down to the base
// identifier, or nil.
func rootIdent(e ast.Expr) *ast.Ident {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			return x
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.UnaryExpr:
			e = x.X
		default:
			return nil
		}
	}
}
