package analysis

import (
	"go/ast"
	"regexp"
)

// PoolPair enforces the pooled-storage pairing contract from DESIGN §12: a
// buffer withdrawn from a pool — Get on a receiver named for a pool, like
// transport's framePool (a sync.Pool), or getFrameBuf() — must be put back
// exactly once on every path out of the acquiring function. Two things
// discharge the obligation:
//
//   - a put/Put call taking the value as an argument (framePool.Put(b),
//     putFrameBuf(b));
//   - an escape to a new owner: returning it, storing it in a struct,
//     sending it on a channel, or capturing it in a goroutine that now owns
//     the Put.
//
// Passing the buffer as a plain argument is a borrow (readFrame fills a
// caller-owned buffer; the caller still owes the Put), so leaks past
// borrows are still caught. Putting a definitely-released value twice is
// reported: a double Put poisons a sync.Pool with aliased buffers, the
// exact class of corruption the frame pool's one-copy handoff exists to
// avoid.
var PoolPair = &Analyzer{
	Name: "poolpair",
	Doc:  "pooled buffers (framePool, sync.Pool) must be put back exactly once on all paths",
	Run:  runPoolPair,
}

// poolRecvRe matches receiver names that identify a pool.
var poolRecvRe = regexp.MustCompile(`(?i)pool`)

// poolReleaseRe matches callee names that give a value back to its pool.
var poolReleaseRe = regexp.MustCompile(`^(?i)put`)

var poolPairSpec = &ownershipSpec{
	what:   "pooled buffer",
	action: "a Put",
	acquire: func(pass *Pass, file *File, call *ast.CallExpr) bool {
		switch fun := call.Fun.(type) {
		case *ast.Ident:
			return fun.Name == "getFrameBuf"
		case *ast.SelectorExpr:
			// The receiver names a pool: framePool, s.pool.
			return fun.Sel.Name == "Get" && poolRecvRe.MatchString(exprKey(pass.Fset, fun.X))
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
		if !poolReleaseRe.MatchString(name) {
			return false
		}
		// The value itself as a direct argument.
		for _, a := range call.Args {
			if id := directIdent(a); id != nil && id.Obj == obj {
				return true
			}
		}
		return false
	},
	argBorrows:    true, // readFrame(conn, bufp): caller still owes the Put
	doubleRelease: true,
}

func runPoolPair(pass *Pass) {
	runOwnership(pass, poolPairSpec)
}
