// Package lockheld is analyzer testdata: blocking operations performed
// with a mutex still held.
package lockheld

import "sync"

type box struct {
	mu   sync.Mutex
	rw   sync.RWMutex
	ch   chan int
	done chan struct{}
	v    int
}

func (b *box) badSend() {
	b.mu.Lock()
	b.ch <- 1 // want "channel send while b.mu is held"
	b.mu.Unlock()
}

func (b *box) badRecv() {
	b.mu.Lock()
	v := <-b.ch // want "channel receive while b.mu is held"
	b.mu.Unlock()
	b.v = v
}

func (b *box) badSelect() {
	b.rw.RLock()
	select { // want "select without default while b.rw is held"
	case <-b.done:
	case v := <-b.ch:
		b.v = v
	}
	b.rw.RUnlock()
}

func (b *box) badCall(c *caller) {
	b.mu.Lock()
	defer b.mu.Lock() // note: a second Lock, not an Unlock — still held
	c.Call()          // want "blocking call Call while b.mu is held"
}

// goodUnlockFirst releases before blocking.
func (b *box) goodUnlockFirst() {
	b.mu.Lock()
	v := b.v
	b.mu.Unlock()
	b.ch <- v
}

// goodDeferUnlock: a scheduled defer Unlock discharges the obligation
// (the sync.Cond pattern releases inside Wait).
func (b *box) goodDeferUnlock() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.ch <- b.v
}

// goodNonBlockingSelect: select with default cannot park.
func (b *box) goodNonBlockingSelect() {
	b.mu.Lock()
	select {
	case b.ch <- b.v:
	default:
	}
	b.mu.Unlock()
}

// goodGoroutine: the send runs on another goroutine; the literal is its
// own analysis unit with no lock of its own.
func (b *box) goodGoroutine() {
	b.mu.Lock()
	v := b.v
	go func() { b.ch <- v }()
	b.mu.Unlock()
}

// goodBranchScoped: flow-conservative branch copies do not leak a branch
// Lock to the fall-through path.
func (b *box) goodBranchScoped(p bool) {
	if p {
		b.mu.Lock()
		b.v++
		b.mu.Unlock()
	}
	b.ch <- b.v
}

func (b *box) waived() {
	b.mu.Lock()
	b.ch <- b.v //elan:vet-allow lockheld — testdata: demonstrates the waiver pragma
	b.mu.Unlock()
}

// badStep: a reducer step runs the collective, so it blocks on every peer.
func (b *box) badStep(r *reducer) {
	b.mu.Lock()
	r.BackwardAllReduce() // want "blocking call BackwardAllReduce while b.mu is held"
	b.mu.Unlock()
}

// badCommit: the training step and the exchange it ends in block on every
// peer too.
func (b *box) badCommit(r *reducer, g *group) {
	b.mu.Lock()
	r.BackwardStep()            // want "blocking call BackwardStep while b.mu is held"
	g.ReduceScatterMeanBucket() // want "blocking call ReduceScatterMeanBucket while b.mu is held"
	g.ReduceScatterMeanCommit() // want "blocking call ReduceScatterMeanCommit while b.mu is held"
	b.mu.Unlock()
}

type caller struct{}

func (*caller) Call() {}

type reducer struct{}

func (*reducer) BackwardAllReduce() {}

func (*reducer) BackwardStep() {}

type group struct{}

func (*group) ReduceScatterMeanBucket() {}

func (*group) ReduceScatterMeanCommit() {}
