package clock

import (
	"container/heap"
	"context"
	"sync"
	"time"
)

// defaultGrain is the real-time pause between auto-advance steps: long
// enough for goroutines unblocked by the previous step to run and register
// their next waiter, short enough that a simulated ack timeout costs
// microseconds instead of its face value.
const defaultGrain = 200 * time.Microsecond

// Sim is a Clock on virtual time: a discrete-event engine whose waiters
// (sleeps, timers, tickers) are callbacks in a queue ordered by deadline.
// It is safe for concurrent use: any number of goroutines may sleep or wait
// on timers while a driver (a test calling Advance, or the AutoAdvance
// goroutine) moves time forward. Waiters scheduled for the same instant fire
// in registration order, which makes same-seed runs deterministic.
type Sim struct {
	mu      sync.Mutex
	now     time.Duration // virtual time since epoch
	queue   eventQueue
	nextSeq uint64
	epoch   time.Time
}

// event is a waiter's callback at virtual time at. It runs with Sim.mu
// held, inside Advance.
type event struct {
	at    time.Duration
	fn    func()
	seq   uint64 // registration order, the tie-break for equal at
	index int    // position in the queue; -1 once fired or cancelled
}

// eventQueue is a min-heap of events ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}

func (q *eventQueue) Push(x any) {
	ev := x.(*event)
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

// NewSim returns a simulated clock whose Now starts at epoch.
func NewSim(epoch time.Time) *Sim {
	return &Sim{epoch: epoch}
}

// after registers fn to run once virtual time has advanced by d (a
// negative d counts as zero); callers hold s.mu.
func (s *Sim) after(d time.Duration, fn func()) *event {
	ev := &event{at: s.now + max(d, 0), fn: fn, seq: s.nextSeq}
	s.nextSeq++
	heap.Push(&s.queue, ev)
	return ev
}

// cancel removes a pending event, reporting whether it was still pending;
// callers hold s.mu.
func (s *Sim) cancel(ev *event) bool {
	if ev == nil || ev.index < 0 {
		return false
	}
	heap.Remove(&s.queue, ev.index)
	return true
}

// advance fires, in (deadline, registration) order, every event due within
// the next d of virtual time — including ones the callbacks register inside
// the window — then sets the clock to the window's end; callers hold s.mu.
func (s *Sim) advance(d time.Duration) {
	if d < 0 {
		return
	}
	end := s.now + d
	for len(s.queue) > 0 && s.queue[0].at <= end {
		ev := heap.Pop(&s.queue).(*event)
		s.now = ev.at
		ev.fn()
	}
	s.now = end
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch.Add(s.now)
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Elapsed returns the virtual time advanced since construction.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Advance moves virtual time forward by d, firing every waiter whose
// deadline falls inside the window, in timestamp order. Negative d is a
// no-op.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advance(d)
}

// AdvanceToNext jumps virtual time to the earliest pending deadline and
// fires it (plus anything scheduled for the same instant). It reports
// whether there was anything to fire.
func (s *Sim) AdvanceToNext() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.queue) == 0 {
		return false
	}
	s.advance(s.queue[0].at - s.now)
	return true
}

// Pending reports the number of registered waiters.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.queue)
}

// AutoAdvance starts a background driver that repeatedly jumps virtual
// time to the earliest pending deadline, pausing grain of real time
// between jumps so goroutines unblocked by one step get to run and
// register their next waiter (grain <= 0 selects a default). The returned
// stop function halts the driver; it is idempotent. Tests use AutoAdvance
// to run timeout-driven protocols (ack/resend loops, retry backoff) to
// completion without real sleeps.
func (s *Sim) AutoAdvance(grain time.Duration) (stop func()) {
	if grain <= 0 {
		grain = defaultGrain
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		tick := time.NewTicker(grain)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				s.AdvanceToNext()
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}

// Sleep implements Clock. The call returns when a driver advances virtual
// time past the deadline, or immediately with ctx.Err() once ctx is
// cancelled.
func (s *Sim) Sleep(ctx context.Context, d time.Duration) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if d <= 0 {
		return nil
	}
	fired := make(chan struct{})
	s.mu.Lock()
	ev := s.after(d, func() { close(fired) })
	s.mu.Unlock()
	if ctx == nil {
		<-fired
		return nil
	}
	select {
	case <-fired:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		s.cancel(ev)
		s.mu.Unlock()
		return ctx.Err()
	}
}

// After implements Clock.
func (s *Sim) After(d time.Duration) <-chan time.Time { return s.NewTimer(d).C() }

// NewTimer implements Clock.
func (s *Sim) NewTimer(d time.Duration) Timer {
	t := &simTimer{s: s, ch: make(chan time.Time, 1)}
	s.mu.Lock()
	t.schedule(d)
	s.mu.Unlock()
	return t
}

// simTimer is a one-shot timer on virtual time. Its callback runs with
// s.mu held (waiters fire inside Advance), so it reads s.now directly and
// communicates through the buffered channel only.
type simTimer struct {
	s  *Sim
	ch chan time.Time
	ev *event
}

// schedule arms the timer; callers hold s.mu.
func (t *simTimer) schedule(d time.Duration) {
	t.ev = t.s.after(d, func() {
		select {
		case t.ch <- t.s.epoch.Add(t.s.now):
		default:
		}
	})
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.cancel(t.ev)
}

func (t *simTimer) Reset(d time.Duration) bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	active := t.s.cancel(t.ev)
	t.schedule(d)
	return active
}

// NewTicker implements Clock.
func (s *Sim) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("clock: non-positive ticker interval")
	}
	k := &simTicker{s: s, d: d, ch: make(chan time.Time, 1)}
	s.mu.Lock()
	k.schedule()
	s.mu.Unlock()
	return k
}

// simTicker re-arms itself from its own callback; like simTimer its
// callback runs with s.mu held.
type simTicker struct {
	s       *Sim
	d       time.Duration
	ch      chan time.Time
	ev      *event
	stopped bool
}

// schedule arms the next tick; callers hold s.mu.
func (k *simTicker) schedule() {
	k.ev = k.s.after(k.d, func() {
		select {
		case k.ch <- k.s.epoch.Add(k.s.now):
		default:
		}
		if !k.stopped {
			k.schedule()
		}
	})
}

func (k *simTicker) C() <-chan time.Time { return k.ch }

func (k *simTicker) Stop() {
	k.s.mu.Lock()
	defer k.s.mu.Unlock()
	k.stopped = true
	k.s.cancel(k.ev)
}
