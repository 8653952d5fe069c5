// Package clock is the single time substrate shared by the distributed
// runtime (transport, worker, collective, telemetry) and the simulator.
// Every layer that sleeps, times out, or reads the current time does so
// through the Clock interface, so the same coordination stack runs on wall
// time in a deployment and on deterministic virtual time in tests and
// simulations — the property Elan's sub-second adjustment claims depend on
// being able to measure trustworthily.
//
// Two implementations are provided: Wall (the real time package) and Sim
// (a goroutine-safe discrete-event clock on virtual time, advanced manually
// or by an auto-advance driver).
package clock

import (
	"context"
	"time"
)

// Clock abstracts the time operations the runtime needs. Implementations
// must be safe for concurrent use.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Since returns the elapsed time since t.
	Since(t time.Time) time.Duration
	// Sleep blocks for d or until ctx is cancelled, returning ctx.Err()
	// in the latter case. A nil ctx never cancels.
	Sleep(ctx context.Context, d time.Duration) error
	// After returns a channel that receives the current time once d has
	// elapsed. Use NewTimer when the wait may need to be cancelled.
	After(d time.Duration) <-chan time.Time
	// NewTimer returns a timer that fires once after d.
	NewTimer(d time.Duration) Timer
	// NewTicker returns a ticker that fires every d. d must be positive.
	NewTicker(d time.Duration) Ticker
}

// Timer is a cancellable one-shot timer (the time.Timer shape behind an
// interface so simulated timers can implement it).
type Timer interface {
	// C is the channel the expiry is delivered on.
	C() <-chan time.Time
	// Stop cancels the timer; it reports whether the timer was still
	// pending. It does not drain C.
	Stop() bool
	// Reset re-arms the timer for d, reporting whether it was still
	// pending. Callers must only Reset a timer that has fired and been
	// drained, or been stopped — the same contract as time.Timer.
	Reset(d time.Duration) bool
}

// Ticker delivers repeated ticks. Ticks are dropped (not queued) when the
// receiver lags, matching time.Ticker.
type Ticker interface {
	// C is the channel ticks are delivered on.
	C() <-chan time.Time
	// Stop turns the ticker off. It does not close C.
	Stop()
}

// Wall is the production Clock: real time from the time package. The zero
// value is ready to use.
type Wall struct{}

// Now implements Clock.
func (Wall) Now() time.Time { return time.Now() }

// Since implements Clock.
func (Wall) Since(t time.Time) time.Duration { return time.Since(t) }

// Sleep implements Clock.
func (Wall) Sleep(ctx context.Context, d time.Duration) error {
	if ctx != nil && ctx.Err() != nil {
		return ctx.Err()
	}
	if d <= 0 {
		return nil
	}
	if ctx == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// After implements Clock.
func (Wall) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTimer implements Clock.
func (Wall) NewTimer(d time.Duration) Timer { return wallTimer{time.NewTimer(d)} }

// NewTicker implements Clock.
func (Wall) NewTicker(d time.Duration) Ticker { return wallTicker{time.NewTicker(d)} }

type wallTimer struct{ t *time.Timer }

func (w wallTimer) C() <-chan time.Time        { return w.t.C }
func (w wallTimer) Stop() bool                 { return w.t.Stop() }
func (w wallTimer) Reset(d time.Duration) bool { return w.t.Reset(d) }

type wallTicker struct{ t *time.Ticker }

func (w wallTicker) C() <-chan time.Time { return w.t.C }
func (w wallTicker) Stop()               { w.t.Stop() }
