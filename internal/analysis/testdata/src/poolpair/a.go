// Package poolpair exercises the pool-pairing analyzer. The fixtures
// mirror the real discipline: a sync.Pool-shaped buffer pool (framePool)
// and package helper functions (getFrameBuf/putFrameBuf).
package poolpair

type bufPool struct{}

func (p *bufPool) Get() []byte  { return nil }
func (p *bufPool) Put(b []byte) {}

var framePool bufPool

func getFrameBuf() []byte  { return framePool.Get() }
func putFrameBuf(b []byte) { framePool.Put(b) }

func fill(b []byte) {}

var errDummy = errOf("dummy")

type errOf string

func (e errOf) Error() string { return string(e) }

// leakOnEarlyReturn: the error path drops the buffer.
func leakOnEarlyReturn(fail bool) error {
	b := framePool.Get() // want `pooled buffer assigned to b does not reach a Put on every path`
	if fail {
		return errDummy
	}
	framePool.Put(b)
	return nil
}

// leakPastBorrow: lending the buffer to fill does not discharge the Put.
func leakPastBorrow() {
	b := framePool.Get() // want `pooled buffer assigned to b does not reach a Put on every path`
	fill(b)
}

// doublePut: released twice on the same path poisons the pool.
func doublePut() {
	b := framePool.Get()
	framePool.Put(b)
	framePool.Put(b) // want `pooled buffer released twice`
}

// reacquireWhileLive: the first withdrawal is overwritten unreleased.
func reacquireWhileLive() {
	b := framePool.Get()
	b = framePool.Get() // want `re-acquiring into b overwrites a pooled buffer`
	framePool.Put(b)
}

// discarded: the withdrawal never lands anywhere.
func discarded() {
	framePool.Get() // want `pooled buffer acquired and immediately discarded`
}

// deferPut: the canonical borrow-scope pattern.
func deferPut(fail bool) error {
	b := framePool.Get()
	defer framePool.Put(b)
	fill(b)
	if fail {
		return errDummy
	}
	return nil
}

// putOnEveryPath: explicit release on both arms.
func putOnEveryPath(fail bool) error {
	b := framePool.Get()
	if fail {
		framePool.Put(b)
		return errDummy
	}
	fill(b)
	framePool.Put(b)
	return nil
}

// helperFuncs: package-level get/put helpers pair like methods.
func helperFuncs() {
	b := getFrameBuf()
	fill(b)
	putFrameBuf(b)
}

// goroutineTakesOwnership: the spawned goroutine owns the release.
func goroutineTakesOwnership(done chan struct{}) {
	b := framePool.Get()
	go func() {
		fill(b)
		framePool.Put(b)
		close(done)
	}()
}

// waived: an acknowledged drop, justified (the arena refills on demand).
func waived() {
	b := framePool.Get() //elan:vet-allow poolpair — testdata: demonstrates the waiver pragma
	fill(b)
}
