package transport

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
)

func TestRetryScheduleDeterministic(t *testing.T) {
	p := RetryPolicy{Attempts: 6, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 99}
	a, b := p.Schedule(), p.Schedule()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%v\n%v", a, b)
	}
	p.Seed = 100
	if reflect.DeepEqual(a, p.Schedule()) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestRetryScheduleBounds(t *testing.T) {
	p := RetryPolicy{Attempts: 8, Base: 10 * time.Millisecond, Max: 100 * time.Millisecond, Seed: 1}
	delays := p.Schedule()
	if len(delays) != p.Attempts-1 {
		t.Fatalf("schedule length %d, want %d", len(delays), p.Attempts-1)
	}
	raw := p.Base
	for i, d := range delays {
		cap := raw
		if cap > p.Max {
			cap = p.Max
		}
		// Jitter keeps each delay in [cap/2, cap).
		if d < cap/2 || d >= cap {
			t.Fatalf("delay %d = %v outside [%v, %v)", i, d, cap/2, cap)
		}
		if raw <= p.Max {
			raw *= 2
		}
	}
}

func TestRetryScheduleZeroValueNormalized(t *testing.T) {
	delays := RetryPolicy{}.Schedule()
	if len(delays) != DefaultRetryAttempts-1 {
		t.Fatalf("zero policy schedule length %d, want %d", len(delays), DefaultRetryAttempts-1)
	}
	for i, d := range delays {
		if d <= 0 || d > DefaultRetryMax {
			t.Fatalf("delay %d = %v out of range", i, d)
		}
	}
}

func TestCallRetryFollowsScheduleOnSimClock(t *testing.T) {
	// Dial a dead address so every attempt fails immediately; the only time
	// that passes on the sim clock is the backoff itself, so virtual elapsed
	// must equal the schedule sum exactly.
	sim := clock.NewSim(time.Unix(0, 0))
	stop := sim.AutoAdvance(0)
	defer stop()
	policy := RetryPolicy{
		Attempts: 5,
		Base:     100 * time.Millisecond,
		Max:      time.Second,
		Seed:     7,
		Clock:    sim,
	}
	var want time.Duration
	for _, d := range policy.Schedule() {
		want += d
	}
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	start := time.Now()
	_, err := client.CallRetry(context.Background(), "x", nil, 100*time.Millisecond, policy)
	if err == nil {
		t.Fatal("CallRetry to dead address succeeded")
	}
	if got := sim.Elapsed(); got != want {
		t.Fatalf("virtual backoff elapsed %v, want schedule sum %v", got, want)
	}
	// Sub-second wall time even though the virtual schedule is ~900ms+:
	// generous bound to absorb slow dial failures on loaded machines.
	if wall := time.Since(start); wall > 10*time.Second {
		t.Fatalf("sim-clock backoff burned %v of wall time", wall)
	}
}

func TestCallRetryCancelDuringBackoff(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	// No auto-advance: the first backoff sleep can only end via ctx.
	policy := RetryPolicy{Attempts: 3, Base: time.Hour, Clock: sim}
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.CallRetry(ctx, "x", nil, 100*time.Millisecond, policy)
		done <- err
	}()
	// Wait for the sleeper to register, then cancel.
	deadline := time.Now().Add(5 * time.Second)
	for sim.Pending() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("backoff sleep never registered on sim clock")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled CallRetry returned nil error")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled CallRetry never returned")
	}
}

// TestCallRetryDoesNotRetryHandlerErrors is the regression for the
// retry-identity bug: CallRetry used to push deterministic application
// errors through the full backoff budget, re-executing non-idempotent
// handlers. A handler that runs and fails must run exactly once.
func TestCallRetryDoesNotRetryHandlerErrors(t *testing.T) {
	guardGoroutines(t)
	var invocations atomic.Int64
	srv := NewServer(func(m Message) ([]byte, error) {
		invocations.Add(1)
		return nil, errors.New("charge already applied") // non-idempotent: a retry would double-charge
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	sim := clock.NewSim(time.Unix(0, 0))
	stop := sim.AutoAdvance(0)
	defer stop()
	policy := RetryPolicy{Attempts: 6, Base: 10 * time.Millisecond, Clock: sim}
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	_, err = client.CallRetry(context.Background(), "charge", nil, time.Second, policy)
	if err == nil {
		t.Fatal("handler error did not propagate")
	}
	if !IsHandlerError(err) {
		t.Fatalf("error lost handler identity: %v", err)
	}
	if got := invocations.Load(); got != 1 {
		t.Fatalf("non-idempotent handler executed %d times under CallRetry, want exactly 1", got)
	}
	if elapsed := sim.Elapsed(); elapsed != 0 {
		t.Fatalf("terminal error burned %v of backoff", elapsed)
	}
}

// TestCallRetryStillRetriesTransportErrors pins the other half of the
// contract: dial failures keep burning the full attempt budget.
func TestCallRetryStillRetriesTransportErrors(t *testing.T) {
	sim := clock.NewSim(time.Unix(0, 0))
	stop := sim.AutoAdvance(0)
	defer stop()
	policy := RetryPolicy{Attempts: 4, Base: 10 * time.Millisecond, Clock: sim}
	var want time.Duration
	for _, d := range policy.Schedule() {
		want += d
	}
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	_, err := client.CallRetry(context.Background(), "x", nil, 100*time.Millisecond, policy)
	if err == nil {
		t.Fatal("CallRetry to dead address succeeded")
	}
	if !strings.Contains(err.Error(), "4 attempts failed") {
		t.Fatalf("dial failure did not burn the budget: %v", err)
	}
	if got := sim.Elapsed(); got != want {
		t.Fatalf("backoff elapsed %v, want schedule sum %v", got, want)
	}
}

// TestServerRecoversHandlerPanics: a panicking handler must produce a
// typed CodeHandlerPanic response, bump transport_handler_panics_total,
// and leave both the connection and the server serving.
func TestServerRecoversHandlerPanics(t *testing.T) {
	guardGoroutines(t)
	srv := NewServer(func(m Message) ([]byte, error) {
		if m.Kind == "boom" {
			panic("nil map write in handler")
		}
		return []byte("ok"), nil
	})
	reg := telemetry.NewRegistry()
	srv.SetMetrics(reg)
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{Conns: 1})
	defer client.Close()

	_, err = client.Call(context.Background(), "boom", nil, time.Second)
	if !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("panic response = %v, want ErrHandlerPanic identity", err)
	}
	if Retryable(err) {
		t.Fatal("a handler panic must be terminal under CallRetry")
	}
	if !strings.Contains(err.Error(), "nil map write") {
		t.Fatalf("panic message lost: %v", err)
	}
	if got := reg.Counter("transport_handler_panics_total").Value(); got != 1 {
		t.Fatalf("transport_handler_panics_total = %d, want 1", got)
	}
	// The same connection keeps serving after the panic.
	out, err := client.Call(context.Background(), "fine", nil, time.Second)
	if err != nil || string(out) != "ok" {
		t.Fatalf("call after panic = %q, %v", out, err)
	}
	// And a second panic on that connection is contained the same way.
	if _, err := client.Call(context.Background(), "boom", nil, time.Second); !errors.Is(err, ErrHandlerPanic) {
		t.Fatalf("second panic response = %v, want ErrHandlerPanic identity", err)
	}
	if got := reg.Counter("transport_handler_panics_total").Value(); got != 2 {
		t.Fatalf("transport_handler_panics_total = %d, want 2", got)
	}
}

// TestOneShotCallRoundTrip covers a fresh client's first dial on the framed
// protocol, and payload isolation from the pooled frame buffers: two
// replies read through one connection's reader stay distinct.
func TestOneShotCallRoundTrip(t *testing.T) {
	guardGoroutines(t)
	srv := NewServer(func(m Message) ([]byte, error) {
		return append([]byte("got:"), m.Payload...), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{Conns: 1})
	defer client.Close()
	out1, err := client.Call(context.Background(), "a", []byte("one"), time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	out2, err := client.Call(context.Background(), "b", []byte("two"), time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(out1) != "got:one" || string(out2) != "got:two" {
		t.Fatalf("replies = %q, %q (buffer aliasing?)", out1, out2)
	}
}
