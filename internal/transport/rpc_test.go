package transport

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/telemetry"
)

func TestCallRetryCancelDuringBackoff(t *testing.T) {
	// Dial a port that nothing listens on: attempts fail at once, so the
	// call spends its time in backoff (attempts at about 0, 10, 30, 70 and
	// 150 ms). Cancelling at 15 ms lands in the second sleep.
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.CallRetry(ctx, "x", nil, 100*time.Millisecond)
		done <- err
	}()
	time.Sleep(15 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("cancelled CallRetry returned nil error")
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled CallRetry = %v, want context.Canceled", err)
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
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	_, err = client.CallRetry(context.Background(), "charge", nil, time.Second)
	if err == nil {
		t.Fatal("handler error did not propagate")
	}
	if !IsHandlerError(err) {
		t.Fatalf("error lost handler identity: %v", err)
	}
	if got := invocations.Load(); got != 1 {
		t.Fatalf("non-idempotent handler executed %d times under CallRetry, want exactly 1", got)
	}
	if strings.Contains(err.Error(), "attempts failed") {
		t.Fatalf("terminal error went through the backoff budget: %v", err)
	}
}

// TestCallRetryStillRetriesTransportErrors pins the other half of the
// contract: dial failures keep burning the full attempt budget, sleeping
// the whole backoff schedule between attempts.
func TestCallRetryStillRetriesTransportErrors(t *testing.T) {
	var want time.Duration
	for _, d := range retryDelays {
		want += d
	}
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	start := time.Now()
	_, err := client.CallRetry(context.Background(), "x", nil, 100*time.Millisecond)
	if err == nil {
		t.Fatal("CallRetry to dead address succeeded")
	}
	if !strings.Contains(err.Error(), fmt.Sprintf("%d attempts failed", len(retryDelays)+1)) {
		t.Fatalf("dial failure did not burn the budget: %v", err)
	}
	if got := time.Since(start); got < want {
		t.Fatalf("backoff elapsed %v, want at least the schedule sum %v", got, want)
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
	client := NewClient(addr, ClientConfig{})
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
	client := NewClient(addr, ClientConfig{})
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
