package transport

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
)

// guardGoroutines fails the test if goroutines outlive the test's cleanup
// stack (bus shutdown must stop every delivery goroutine). Register it
// FIRST so it runs after all other cleanups.
func guardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

// simBus builds a bus on auto-advanced virtual time: ack timeouts and
// latency cost microseconds of wall time instead of their face value.
func simBus(t *testing.T, cfg BusConfig) (*Bus, *clock.Sim) {
	t.Helper()
	guardGoroutines(t)
	sim := clock.NewSim(time.Unix(0, 0))
	stop := sim.AutoAdvance(0)
	t.Cleanup(stop)
	cfg.Clock = sim
	bus := NewBus(cfg)
	t.Cleanup(bus.Close)
	return bus, sim
}

func TestCallBasic(t *testing.T) {
	bus, _ := simBus(t, DefaultBusConfig())
	_, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return []byte("pong:" + string(m.Payload)), nil
	})
	if err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, err := bus.Endpoint("client", nil)
	if err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	out, err := client.Call("server", "ping", []byte("hi"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(out) != "pong:hi" {
		t.Fatalf("reply = %q", out)
	}
}

func TestCallUnknownEndpoint(t *testing.T) {
	bus, _ := simBus(t, DefaultBusConfig())
	client, err := bus.Endpoint("client", nil)
	if err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	_, err = client.Call("ghost", "ping", nil)
	if !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("err = %v, want ErrNoEndpoint", err)
	}
}

func TestEmptyEndpointName(t *testing.T) {
	bus, _ := simBus(t, DefaultBusConfig())
	if _, err := bus.Endpoint("", nil); err == nil {
		t.Fatal("empty name accepted")
	}
}

func TestHandlerError(t *testing.T) {
	bus, _ := simBus(t, DefaultBusConfig())
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return nil, errors.New("boom")
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	_, err := client.Call("server", "x", nil)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want boom", err)
	}
}

func TestResendSurvivesDrops(t *testing.T) {
	cfg := DefaultBusConfig()
	cfg.DropRate = 0.4
	cfg.Seed = 42
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 50
	bus, _ := simBus(t, cfg)
	var handled atomic.Int64
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		handled.Add(1)
		return m.Payload, nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	for i := 0; i < 20; i++ {
		out, err := client.Call("server", "echo", []byte{byte(i)})
		if err != nil {
			t.Fatalf("Call %d: %v", i, err)
		}
		if len(out) != 1 || out[0] != byte(i) {
			t.Fatalf("Call %d: reply %v", i, out)
		}
	}
	// Exactly-once processing despite resends.
	if got := handled.Load(); got != 20 {
		t.Fatalf("handler ran %d times, want 20", got)
	}
}

func TestResendOnSimLatency(t *testing.T) {
	// Latency injection also runs on virtual time: a 50 ms round trip
	// costs no real sleeping.
	cfg := DefaultBusConfig()
	cfg.Latency = 25 * time.Millisecond
	cfg.AckTimeout = 200 * time.Millisecond
	bus, sim := simBus(t, cfg)
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return m.Payload, nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	start := time.Now()
	if _, err := client.Call("server", "echo", []byte("x")); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("simulated latency cost %v of wall time", wall)
	}
	if sim.Elapsed() < 50*time.Millisecond {
		t.Fatalf("virtual time advanced only %v, want >= 50ms", sim.Elapsed())
	}
}

func TestDedupReturnsCachedReply(t *testing.T) {
	// Force the first reply to be dropped and verify the resent request
	// gets the original handler result, not an empty ack.
	cfg := DefaultBusConfig()
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 20
	bus, _ := simBus(t, cfg)
	var calls atomic.Int64
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		calls.Add(1)
		return []byte("result"), nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	// Simulate a dropped reply by calling handle directly twice with the
	// same message, as a resend would.
	msg := Message{ID: client.allocID(), From: "client", To: "server", Kind: "x"}
	dst, _ := bus.lookup("server")
	first, err := dst.handle(msg)
	if err != nil || string(first) != "result" {
		t.Fatalf("first handle = %q, %v", first, err)
	}
	second, err := dst.handle(msg)
	if err != nil || string(second) != "result" {
		t.Fatalf("duplicate handle = %q, %v; want cached result", second, err)
	}
	if calls.Load() != 1 {
		t.Fatalf("handler ran %d times, want 1", calls.Load())
	}
}

// TestOlderConcurrentCallRefused: calls A and B share one endpoint, and the
// fault hook drops A's first request leg, so B's higher ID reaches the
// handler first. A's resend is then below the receiver's high-water mark.
// It must fail with ErrSuperseded, not be acked as a success the handler
// never produced.
func TestOlderConcurrentCallRefused(t *testing.T) {
	guardGoroutines(t)
	cfg := DefaultBusConfig()
	sim := clock.NewSim(time.Unix(0, 0))
	cfg.Clock = sim // advanced by hand: A resends only when the test says so
	bus := NewBus(cfg)
	defer bus.Close()
	var mu sync.Mutex
	var ran []string
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		mu.Lock()
		ran = append(ran, m.Kind)
		mu.Unlock()
		return []byte(m.Kind), nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	dropped := make(chan struct{})
	var once sync.Once
	bus.SetFaultHook(func(m Message) Fate {
		drop := false
		if m.Kind == "a" && m.To == "server" {
			once.Do(func() { drop = true; close(dropped) })
		}
		return Fate{Drop: drop}
	})
	errA := make(chan error, 1)
	go func() {
		_, err := client.Call("server", "a", nil)
		errA <- err
	}()
	<-dropped
	if out, err := client.Call("server", "b", nil); err != nil || string(out) != "b" {
		t.Fatalf("call B = %q, %v", out, err)
	}
	sim.Advance(cfg.AckTimeout) // A's ack timer fires and A resends
	if err := <-errA; !errors.Is(err, ErrSuperseded) {
		t.Fatalf("call A = %v, want ErrSuperseded", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(ran) != 1 || ran[0] != "b" {
		t.Fatalf("handler ran for %v, want only [b]", ran)
	}
}

func TestTimeoutAfterRetries(t *testing.T) {
	cfg := DefaultBusConfig()
	cfg.DropRate = 0.95 // nearly everything lost
	cfg.Seed = 7
	cfg.AckTimeout = time.Millisecond
	cfg.MaxRetries = 3
	bus, _ := simBus(t, cfg)
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	var sawTimeout bool
	for i := 0; i < 10; i++ {
		if _, err := client.Call("server", "x", nil); errors.Is(err, ErrTimeout) {
			sawTimeout = true
			break
		}
	}
	if !sawTimeout {
		t.Fatal("no timeout observed at 95% drop rate with 3 retries")
	}
}

func TestCallCtxCancelled(t *testing.T) {
	// A cancelled context aborts the resend loop immediately even though
	// the destination never answers.
	cfg := DefaultBusConfig()
	cfg.AckTimeout = time.Hour // would block forever on the ack path
	bus, _ := simBus(t, cfg)
	// Handler blocks until the test ends.
	release := make(chan struct{})
	defer close(release)
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		<-release
		return nil, nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := client.CallCtx(ctx, "server", "x", nil)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("CallCtx = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled CallCtx never returned")
	}
}

func TestBusCloseAbortsCalls(t *testing.T) {
	guardGoroutines(t)
	cfg := DefaultBusConfig()
	cfg.AckTimeout = time.Hour
	cfg.Latency = time.Hour // delivery goroutine parks in a latency sleep
	sim := clock.NewSim(time.Unix(0, 0))
	cfg.Clock = sim
	bus := NewBus(cfg)
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	done := make(chan error, 1)
	go func() {
		_, err := client.Call("server", "x", nil)
		done <- err
	}()
	// Close must abort both the latency-sleeping delivery goroutine and
	// the pending call — with no driver ever advancing virtual time.
	time.Sleep(10 * time.Millisecond) // let the call start
	bus.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("Call after Close = %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call survived bus Close")
	}
	if _, err := client.Call("server", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call on closed bus = %v, want ErrClosed", err)
	}
}

func TestRemoveClosesEndpoint(t *testing.T) {
	bus, _ := simBus(t, DefaultBusConfig())
	ep, err := bus.Endpoint("worker", func(m Message) ([]byte, error) { return nil, nil })
	if err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	bus.Remove("worker")
	if _, err := ep.Call("anything", "x", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call on removed endpoint = %v, want ErrClosed", err)
	}
	client, _ := bus.Endpoint("client", nil)
	if _, err := client.Call("worker", "x", nil); !errors.Is(err, ErrNoEndpoint) {
		t.Fatalf("Call to removed endpoint = %v, want ErrNoEndpoint", err)
	}
}

func TestConcurrentCalls(t *testing.T) {
	bus, _ := simBus(t, DefaultBusConfig())
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return m.Payload, nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			name := "client" + string(rune('0'+c))
			ep, err := bus.Endpoint(name, nil)
			if err != nil {
				t.Errorf("Endpoint: %v", err)
				return
			}
			for i := 0; i < 20; i++ {
				out, err := ep.Call("server", "echo", []byte{byte(c), byte(i)})
				if err != nil {
					t.Errorf("Call: %v", err)
					return
				}
				if len(out) != 2 || out[0] != byte(c) || out[1] != byte(i) {
					t.Errorf("wrong reply %v", out)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestTCPServerRoundTrip(t *testing.T) {
	guardGoroutines(t)
	srv := NewServer(func(m Message) ([]byte, error) {
		if m.Kind == "fail" {
			return nil, errors.New("requested failure")
		}
		return append([]byte("ok:"), m.Payload...), nil
	})
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	defer srv.Close()
	client := NewClient(addr, ClientConfig{})
	defer client.Close()
	ctx := context.Background()
	out, err := client.Call(ctx, "test", []byte("payload"), time.Second)
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(out) != "ok:payload" {
		t.Fatalf("reply = %q", out)
	}
	if _, err := client.Call(ctx, "fail", nil, time.Second); err == nil || !strings.Contains(err.Error(), "requested failure") {
		t.Fatalf("error not propagated: %v", err)
	}
}

func TestTCPReconnectAfterRestart(t *testing.T) {
	// The paper's ZeroMQ reconnect property: a client retries through a
	// server restart.
	ctx := context.Background()
	handler := func(m Message) ([]byte, error) { return []byte("alive"), nil }
	srv1 := NewServer(handler)
	addr, err := srv1.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Listen: %v", err)
	}
	client := NewClient(addr, ClientConfig{Conns: 1})
	defer client.Close()
	if _, err := client.Call(ctx, "ping", nil, time.Second); err != nil {
		t.Fatalf("first Call: %v", err)
	}
	srv1.Close()
	// Server gone: a plain Call fails.
	if _, err := client.Call(ctx, "ping", nil, 100*time.Millisecond); err == nil {
		t.Fatal("Call succeeded against closed server")
	}
	// Restart on the same port.
	srv2 := NewServer(handler)
	if _, err := srv2.Listen(addr); err != nil {
		t.Fatalf("re-Listen: %v", err)
	}
	defer srv2.Close()
	policy := RetryPolicy{Attempts: 5, Base: time.Millisecond, Max: 10 * time.Millisecond}
	out, err := client.CallRetry(ctx, "ping", nil, 200*time.Millisecond, policy)
	if err != nil {
		t.Fatalf("CallRetry after restart: %v", err)
	}
	if string(out) != "alive" {
		t.Fatalf("reply = %q", out)
	}
}

func TestCallRetryExhausts(t *testing.T) {
	// Dial a port that nothing listens on; backoff runs on the sim clock
	// so exhaustion is instant in wall time.
	sim := clock.NewSim(time.Unix(0, 0))
	stop := sim.AutoAdvance(0)
	defer stop()
	policy := RetryPolicy{Attempts: 2, Base: 50 * time.Millisecond, Clock: sim}
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	if _, err := client.CallRetry(context.Background(), "x", nil, 50*time.Millisecond, policy); err == nil {
		t.Fatal("CallRetry to dead address succeeded")
	}
}
