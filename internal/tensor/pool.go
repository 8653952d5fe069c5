// Worker pool behind the parallel kernels. The pool partitions a kernel's
// output rows into blocks and lets a fixed set of resident goroutines claim
// blocks from an atomic cursor. Determinism contract: every output row is
// written by exactly one goroutine and each kernel computes a row with the
// exact accumulation order of its naive reference, so results are
// bit-identical at every parallelism level (including 1, the serial inline
// path).
//
// Many callers share the pool at once, as the ranks of a fleet do. A helper
// generation owns k-1 region slots. A submitter claims a free slot by CAS,
// or runs its kernel inline when every slot holds another caller's region.
// It publishes its region, sends wake tokens without blocking and works its
// own blocks. It then waits only for the helpers that actually entered its
// region: never for another submitter, and never for a helper that has not
// started.
//
// The steady-state dispatch is allocation-free: wake/done tokens are
// zero-size channel sends, region descriptors live in preallocated slots,
// and the kernels are references to top-level functions (no closures).
package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// kernelFn computes output rows [lo, hi) of dst from a and b. A kernel must
// write only rows it owns so that concurrently executed blocks stay
// disjoint.
type kernelFn func(dst, a, b *Matrix, lo, hi int)

// minParallelWork is the approximate multiply-add count below which a
// kernel runs serially inline: dispatching a few-microsecond matmul to the
// pool costs more than it saves, and the tiny per-agent matmuls of a
// many-agent fleet would otherwise take the region slots from the kernels
// that can use them. Package tests lower it to force small shapes through
// the pool.
var minParallelWork = 1 << 15

// pool is the package-wide region executor: the current helper generation,
// swapped whole by SetParallelism.
type pool struct {
	mu  sync.Mutex                 // serializes reconfiguration; never taken by a kernel
	gen atomic.Pointer[generation] // the current helpers and their region slots
}

// generation is one helper set: k-1 resident goroutines serving k-1 region
// slots. configure builds it whole and publishes it with one atomic store;
// nothing in it is reassigned afterwards, so a submitter that loaded a
// generation keeps a consistent view of it however SetParallelism races
// with the call.
type generation struct {
	k     int
	slots []region
	wake  chan struct{} // a token per helper: some region may be open
	stop  chan struct{} // closed to retire the helpers
	wg    sync.WaitGroup
}

// region is one slot: a kernel call that helpers may join while it is open.
//
// state is helpers<<1 | open. The owner sets the open bit after writing the
// descriptor; a helper enters only by a CAS that sees the bit set (which
// publishes the descriptor to it) and leaves by subtracting 2. The owner
// clears the bit when the cursor is exhausted. After that exactly one
// operation brings state to zero — the owner's clear when no helper is
// inside, otherwise the last helper's leave, which then sends on done — so
// the owner waits for precisely the helpers inside its region.
type region struct {
	owned atomic.Bool // claimed by a submitter
	state atomic.Int64
	done  chan struct{} // capacity 1: the last helper out of a closed region

	// Descriptor, written by the owner before it opens the region.
	kern      kernelFn
	dst, a, b *Matrix
	rows      int
	blockRows int
	next      atomic.Int64
}

var par = newPool(runtime.GOMAXPROCS(0))

// newPool builds the package pool at init time, so its resident goroutines
// exist before any test records a goroutine baseline.
func newPool(k int) *pool {
	p := &pool{}
	p.gen.Store(newGeneration(k))
	return p
}

// SetParallelism sets the number of goroutines the parallel kernels may use
// (including the calling one) and returns the previous setting. k <= 1
// makes every kernel run serially inline. The default is GOMAXPROCS at
// package initialization. Safe for concurrent use, including while kernels
// run: a kernel that started on the old setting finishes on it.
func SetParallelism(k int) int { return par.configure(k) }

// Parallelism returns the current parallelism setting.
func Parallelism() int { return par.gen.Load().k }

// configure publishes a fresh generation of k-1 helpers, then retires the
// old one, waiting for its goroutines to exit so goroutine counts stay
// deterministic.
func (p *pool) configure(k int) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	old := p.gen.Swap(newGeneration(k))
	old.retire()
	return old.k
}

// newGeneration builds and starts a generation of k-1 helpers (none for
// k <= 1, which is the serial setting).
func newGeneration(k int) *generation {
	g := &generation{k: max(k, 1)}
	if g.k < 2 {
		return g
	}
	g.slots = make([]region, g.k-1)
	for i := range g.slots {
		g.slots[i].done = make(chan struct{}, 1)
	}
	g.wake = make(chan struct{}, g.k-1)
	g.stop = make(chan struct{})
	g.wg.Add(g.k - 1)
	for i := 0; i < g.k-1; i++ {
		go g.helper()
	}
	return g
}

// retire stops g's helpers and waits for them to exit. A region still open
// on g needs none of them: its owner computes every block no helper took,
// and a helper inside a region leaves it before it can exit.
func (g *generation) retire() {
	if g.stop == nil {
		return
	}
	n := runtime.NumGoroutine()
	close(g.stop)
	g.wg.Wait()
	// Done releases the wait while a helper is still on its way out of the
	// runtime, and runtime.NumGoroutine counts it a moment longer. Yield
	// until the helpers are gone, so the count after SetParallelism is exact;
	// the bound keeps goroutines started elsewhere meanwhile from holding
	// reconfiguration here.
	for i := 0; i < 1000 && runtime.NumGoroutine() > n-(g.k-1); i++ {
		runtime.Gosched()
	}
}

// helper is one resident pool goroutine: on every wake token it serves the
// open regions until a pass over the slots finds no block left to compute.
//
//elan:hotpath
func (g *generation) helper() {
	defer g.wg.Done()
	for {
		select {
		case <-g.stop:
			return
		case <-g.wake:
			for g.serve() {
			}
		}
	}
}

// serve enters each open region once, computes blocks until its cursor is
// exhausted, and leaves. It reports whether it computed any block.
//
//elan:hotpath
func (g *generation) serve() bool {
	did := false
	for i := range g.slots {
		r := &g.slots[i]
		if !r.enter() {
			continue
		}
		if r.work() {
			did = true
		}
		r.leave()
	}
	return did
}

// enter joins r if it is open.
//
//elan:hotpath
func (r *region) enter() bool {
	for {
		s := r.state.Load()
		if s&1 == 0 {
			return false
		}
		if r.state.CompareAndSwap(s, s+2) {
			return true
		}
	}
}

// leave ends a helper's participation; the last helper out of a region its
// owner has closed hands the region back.
//
//elan:hotpath
func (r *region) leave() {
	if r.state.Add(-2) == 0 {
		r.done <- struct{}{}
	}
}

// work claims row blocks until the region is exhausted and reports whether
// it computed any. Claiming is dynamic (atomic cursor) for load balance;
// determinism is unaffected because block results are independent.
//
//elan:hotpath
func (r *region) work() bool {
	did := false
	for {
		blk := r.next.Add(1) - 1
		lo := int(blk) * r.blockRows
		if lo >= r.rows {
			return did
		}
		r.kern(r.dst, r.a, r.b, lo, min(lo+r.blockRows, r.rows))
		did = true
	}
}

// claim returns a free slot of g, now owned by the caller, or nil when
// every slot holds a region.
//
//elan:hotpath
func (g *generation) claim() *region {
	for i := range g.slots {
		if r := &g.slots[i]; !r.owned.Load() && r.owned.CompareAndSwap(false, true) {
			return r
		}
	}
	return nil
}

// wakeHelpers sends up to one token per helper without blocking: a full
// channel already holds a token for every helper, each of which will scan
// the slots after this region opened.
//
//elan:hotpath
func (g *generation) wakeHelpers() {
	for i := 1; i < g.k; i++ {
		select {
		case g.wake <- struct{}{}:
		default:
			return
		}
	}
}

// run executes kern over rows output rows, fanning out to the pool when the
// estimated work (multiply-adds) is large enough to amortize dispatch and a
// region slot is free.
//
//elan:hotpath
func (p *pool) run(kern kernelFn, dst, a, b *Matrix, rows, work int) {
	if rows < 2 || work < minParallelWork {
		kern(dst, a, b, 0, rows)
		return
	}
	g := p.gen.Load()
	r := g.claim()
	if r == nil { // serial setting (no slots), or every slot runs another caller's region
		kern(dst, a, b, 0, rows)
		return
	}
	r.kern, r.dst, r.a, r.b = kern, dst, a, b
	r.rows = rows
	r.blockRows = blockRowsFor(rows, g.k)
	r.next.Store(0)
	r.state.Store(1) // open
	g.wakeHelpers()
	r.work() // the submitter participates
	if r.state.Add(-1) != 0 {
		<-r.done // helpers are inside: the last one out signals
	}
	r.kern, r.dst, r.a, r.b = nil, nil, nil, nil
	r.owned.Store(false)
}

// blockRowsFor picks the claim granularity: a handful of blocks per worker
// for load balance, but never so small that claim traffic dominates.
func blockRowsFor(rows, k int) int {
	b := rows / (4 * k)
	if b < 1 {
		b = 1
	}
	return b
}
