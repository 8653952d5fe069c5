package transport

import (
	"context"
	"errors"
	"math/rand"
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

// dropHook is a fault hook losing each delivery leg with probability rate,
// drawn from a generator seeded with seed.
func dropHook(rate float64, seed int64) FaultHook {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(Message) Fate {
		mu.Lock()
		defer mu.Unlock()
		return Fate{Drop: rng.Float64() < rate}
	}
}

// delayHook is a fault hook delaying every delivery leg by d.
func delayHook(d time.Duration) FaultHook {
	return func(Message) Fate { return Fate{Delay: d} }
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
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 50
	bus, _ := simBus(t, cfg)
	bus.SetFaultHook(dropHook(0.4, 42))
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
	// At-least-once processing: every call ran the handler, and a dropped
	// reply leg made its call's resend run it again.
	if got := handled.Load(); got < 20 {
		t.Fatalf("handler ran %d times, want at least 20", got)
	}
}

func TestResendOnSimLatency(t *testing.T) {
	// Delay injection also runs on virtual time: a 50 ms round trip
	// costs no real sleeping.
	cfg := DefaultBusConfig()
	cfg.AckTimeout = 200 * time.Millisecond
	bus, sim := simBus(t, cfg)
	bus.SetFaultHook(delayHook(25 * time.Millisecond))
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

func TestTimeoutAfterRetries(t *testing.T) {
	cfg := DefaultBusConfig()
	cfg.AckTimeout = time.Millisecond
	cfg.MaxRetries = 3
	bus, _ := simBus(t, cfg)
	bus.SetFaultHook(dropHook(0.95, 7)) // nearly everything lost
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
	sim := clock.NewSim(time.Unix(0, 0))
	cfg.Clock = sim
	bus := NewBus(cfg)
	bus.SetFaultHook(delayHook(time.Hour)) // delivery goroutine parks in a delay sleep
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) { return nil, nil }); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	done := make(chan error, 1)
	go func() {
		_, err := client.Call("server", "x", nil)
		done <- err
	}()
	// Close must abort both the delay-sleeping delivery goroutine and
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
	client := NewClient(addr, ClientConfig{})
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
	out, err := client.CallRetry(ctx, "ping", nil, 200*time.Millisecond)
	if err != nil {
		t.Fatalf("CallRetry after restart: %v", err)
	}
	if string(out) != "alive" {
		t.Fatalf("reply = %q", out)
	}
}

func TestCallRetryExhausts(t *testing.T) {
	// Dial a port that nothing listens on: every attempt fails and the
	// whole backoff schedule runs.
	client := NewClient("127.0.0.1:1", ClientConfig{})
	defer client.Close()
	if _, err := client.CallRetry(context.Background(), "x", nil, 50*time.Millisecond); err == nil {
		t.Fatal("CallRetry to dead address succeeded")
	}
}
