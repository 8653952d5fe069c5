package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
)

// PoolPair enforces the pooled-storage pairing contract from DESIGN
// §9/§12: a value withdrawn from a pool or scratch arena — framePool /
// any sync.Pool via Get, a rank's scratch arena via get, getFrameBuf() —
// must be released exactly once on every path out of the acquiring
// function. Three things count as the release:
//
//   - a put/Put/release/free/deposit call taking the value as an argument
//     (framePool.Put(b), putFrameBuf(b), sc.put(m.data));
//   - an ownership-transfer send: sending the value — or a message
//     containing it — on a channel, or passing it to a send*/deposit*
//     call (g.sendTo(me, succ, chunkMsg{data: out})), per the arena
//     ping-pong protocol where the send is the transfer point;
//   - an escape to a new owner: returning it, storing it in a struct, or
//     capturing it in a goroutine that now owns the release.
//
// Passing the buffer as a plain argument is a borrow (readFrame fills a
// caller-owned buffer; the caller still owes the Put), so leaks past
// borrows are still caught. Releasing a definitely-released value twice
// is reported: a double Put poisons a sync.Pool with aliased buffers, the
// exact class of corruption the frame pool's one-copy handoff exists to
// avoid.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc: "pool/arena values (framePool, sync.Pool, scratch arenas) must be " +
		"released exactly once on all paths; sends and deposits transfer ownership",
	Run: runPoolPair,
}

// poolRecvRe matches receiver/type names that identify a pool or arena.
var poolRecvRe = regexp.MustCompile(`(?i)(pool|scratch|arena)`)

// poolReleaseRe matches callee names that give a value back to its pool.
var poolReleaseRe = regexp.MustCompile(`^(?i)(put|release|free|deposit)`)

// poolTransferRe matches callee names that transfer ownership to a peer
// per the arena protocol (the channel send inside is the transfer point).
var poolTransferRe = regexp.MustCompile(`^(?i)(send|deposit)`)

// acquireGetFuncs are package-level helpers that mint pooled values.
var acquireGetFuncs = map[string]bool{
	"getFrameBuf": true,
}

var poolPairSpec = &ownershipSpec{
	what:   "pooled buffer",
	action: "a put/release call or ownership-transfer send",
	acquire: func(pass *Pass, file *File, call *ast.CallExpr) bool {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return acquireGetFuncs[fun.Name]
		case *ast.SelectorExpr:
			if fun.Sel.Name != "Get" && fun.Sel.Name != "get" {
				return false
			}
			// Receiver names a pool/arena either textually (framePool;
			// an alias like sc := &x.scratch[r] prints "sc" and won't
			// match, so also…) or by its intra-package type (a
			// scratchArena resolves via the package's own type info even
			// under stubbed imports).
			if poolRecvRe.MatchString(exprKey(pass.Fset, fun.X)) {
				return true
			}
			return poolRecvRe.MatchString(typeNameOf(pass, fun.X))
		}
		return false
	},
	release: func(pass *Pass, file *File, call *ast.CallExpr, obj *ast.Object) bool {
		var name string
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			name = fun.Name
		case *ast.SelectorExpr:
			name = fun.Sel.Name
		default:
			return false
		}
		if poolReleaseRe.MatchString(name) {
			// The value itself as a direct argument.
			for _, a := range call.Args {
				if id := directIdent(a); id != nil && id.Obj == obj {
					return true
				}
			}
			return false
		}
		if poolTransferRe.MatchString(name) {
			// Ownership-transfer call: the value anywhere in the
			// arguments, including nested in a message literal.
			for _, a := range call.Args {
				found := false
				ast.Inspect(a, func(x ast.Node) bool {
					if id, ok := x.(*ast.Ident); ok && id.Obj == obj {
						found = true
					}
					return true
				})
				if found {
					return true
				}
			}
		}
		return false
	},
	sendReleases:  true, // ch <- buf / ch <- msg{data: buf} transfers ownership
	argBorrows:    true, // readFrame(conn, bufp): caller still owes the Put
	doubleRelease: true,
	skipPkg:       nil,
}

// typeNameOf best-effort resolves an expression's type name via the
// package's type info, peeling pointers. Cross-package types under the
// stub importer come back invalid and yield "".
func typeNameOf(pass *Pass, e ast.Expr) string {
	if pass.Info == nil {
		return ""
	}
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return ""
	}
	t := tv.Type
	for {
		p, ok := t.(*types.Pointer)
		if !ok {
			break
		}
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

func runPoolPair(pass *Pass) {
	runOwnership(pass, poolPairSpec)
}
