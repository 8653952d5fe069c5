package clock

import (
	"context"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/simclock"
)

// defaultGrain is the real-time pause between auto-advance steps: long
// enough for goroutines unblocked by the previous step to run and register
// their next waiter, short enough that a simulated ack timeout costs
// microseconds instead of its face value.
const defaultGrain = 200 * time.Microsecond

// Sim is a Clock on virtual time, backed by the internal/simclock
// discrete-event engine. Unlike the bare engine it is safe for concurrent
// use: any number of goroutines may sleep or wait on timers while a driver
// (a test calling Advance, or the AutoAdvance goroutine) moves time
// forward. Waiters scheduled for the same instant fire in registration
// order, inherited from the engine's deterministic tie-break.
type Sim struct {
	mu    sync.Mutex
	sc    *simclock.Clock
	epoch time.Time
}

// NewSim returns a simulated clock whose Now starts at epoch.
func NewSim(epoch time.Time) *Sim {
	return &Sim{sc: simclock.New(), epoch: epoch}
}

// Now implements Clock.
func (s *Sim) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch.Add(s.sc.Now())
}

// Since implements Clock.
func (s *Sim) Since(t time.Time) time.Duration { return s.Now().Sub(t) }

// Elapsed returns the virtual time advanced since construction.
func (s *Sim) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sc.Now()
}

// Advance moves virtual time forward by d, firing every waiter whose
// deadline falls inside the window, in timestamp order. Negative d is a
// no-op.
func (s *Sim) Advance(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sc.Advance(d)
}

// AdvanceToNext jumps virtual time to the earliest pending deadline and
// fires it (plus anything scheduled for the same instant). It reports
// whether there was anything to fire.
func (s *Sim) AdvanceToNext() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	at, ok := s.sc.Next()
	if !ok {
		return false
	}
	s.sc.Advance(at - s.sc.Now())
	return true
}

// Pending reports the number of registered waiters.
func (s *Sim) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sc.Pending()
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
	ev := s.sc.After(d, "clock.Sleep", func() { close(fired) })
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
		s.sc.Cancel(ev)
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
// s.mu held (waiters fire inside Advance), so it touches the engine
// directly and communicates through the buffered channel only.
type simTimer struct {
	s  *Sim
	ch chan time.Time
	ev *simclock.Event
}

// schedule arms the timer; callers hold s.mu.
func (t *simTimer) schedule(d time.Duration) {
	t.ev = t.s.sc.After(d, "clock.Timer", func() {
		select {
		case t.ch <- t.s.epoch.Add(t.s.sc.Now()):
		default:
		}
	})
}

func (t *simTimer) C() <-chan time.Time { return t.ch }

func (t *simTimer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.s.sc.Cancel(t.ev)
}

func (t *simTimer) Reset(d time.Duration) bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	active := t.s.sc.Cancel(t.ev)
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
	ev      *simclock.Event
	stopped bool
}

// schedule arms the next tick; callers hold s.mu.
func (k *simTicker) schedule() {
	k.ev = k.s.sc.After(k.d, "clock.Ticker", func() {
		select {
		case k.ch <- k.s.epoch.Add(k.s.sc.Now()):
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
	k.s.sc.Cancel(k.ev)
}
