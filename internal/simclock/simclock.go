// Package simclock implements a deterministic discrete-event simulation
// engine. All timing-sensitive experiments in this repository run against a
// virtual clock instead of wall time so that results are reproducible and
// laptop-scale: a "second" of cluster time costs nothing to simulate.
//
// The engine is a classic event-queue design: events carry a virtual
// timestamp, the simulation repeatedly pops the earliest event and runs its
// callback, and callbacks may schedule further events. Ties are broken by
// insertion order, which makes runs fully deterministic for a fixed seed.
package simclock

import (
	"container/heap"
	"fmt"
	"time"
)

// Event is a scheduled callback in virtual time.
type Event struct {
	// At is the virtual time at which the event fires.
	At time.Duration
	// Name annotates the event for tracing and error messages.
	Name string
	// Fn is the callback to execute. It runs on the simulation goroutine.
	Fn func()

	seq   uint64
	index int
	dead  bool
}

// eventQueue implements heap.Interface ordered by (At, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].At != q[j].At {
		return q[i].At < q[j].At
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev, ok := x.(*Event)
	if !ok {
		return
	}
	ev.index = len(*q)
	*q = append(*q, ev)
}

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	ev.index = -1
	*q = old[:n-1]
	return ev
}

// Clock is a discrete-event simulation clock. The zero value is not usable;
// construct one with New.
type Clock struct {
	now     time.Duration
	queue   eventQueue
	nextSeq uint64
}

// New returns a clock starting at virtual time zero with an empty queue.
func New() *Clock {
	return &Clock{}
}

// Now returns the current virtual time.
func (c *Clock) Now() time.Duration { return c.now }

// Schedule enqueues fn to run at absolute virtual time at. Scheduling in the
// past is an error: the simulation cannot rewind.
func (c *Clock) Schedule(at time.Duration, name string, fn func()) (*Event, error) {
	if at < c.now {
		return nil, fmt.Errorf("simclock: schedule %q at %v before now %v", name, at, c.now)
	}
	ev := &Event{At: at, Name: name, Fn: fn, seq: c.nextSeq}
	c.nextSeq++
	heap.Push(&c.queue, ev)
	return ev, nil
}

// After enqueues fn to run after delay d from the current virtual time.
// Negative delays are clamped to zero.
func (c *Clock) After(d time.Duration, name string, fn func()) *Event {
	if d < 0 {
		d = 0
	}
	// Scheduling at or after now can never fail.
	ev, _ := c.Schedule(c.now+d, name, fn)
	return ev
}

// Cancel removes a pending event. Cancelling an already-fired or already-
// cancelled event is a no-op and returns false.
func (c *Clock) Cancel(ev *Event) bool {
	if ev == nil || ev.dead || ev.index < 0 || ev.index >= len(c.queue) || c.queue[ev.index] != ev {
		return false
	}
	ev.dead = true
	heap.Remove(&c.queue, ev.index)
	return true
}

// Pending reports the number of events waiting in the queue.
func (c *Clock) Pending() int { return len(c.queue) }

// Next returns the virtual timestamp of the earliest pending event, or
// false when the queue is empty. Drivers that advance the clock from
// outside (the concurrent clock.Sim wrapper) use it to jump straight to
// the next deadline.
func (c *Clock) Next() (time.Duration, bool) {
	if len(c.queue) == 0 {
		return 0, false
	}
	return c.queue[0].At, true
}

// Run executes events in timestamp order until the queue drains or the next
// event lies past deadline; events left queued stay for a later Run.
func (c *Clock) Run(deadline time.Duration) {
	for len(c.queue) > 0 {
		next := c.queue[0]
		if next.At > deadline {
			// Leave future events queued; advance the clock to the deadline
			// so that Now() reflects how far the simulation ran.
			c.now = deadline
			return
		}
		heap.Pop(&c.queue) // removes next, the queue's minimum
		c.now = next.At
		next.dead = true
		next.Fn()
	}
}

// Advance moves virtual time forward by d. Events scheduled inside the
// skipped window fire in order before Advance returns; a negative d is a
// no-op. clock.Sim drives the engine through it.
func (c *Clock) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	target := c.now + d
	c.Run(target)
	if c.now < target {
		c.now = target
	}
}
