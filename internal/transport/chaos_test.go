package transport

// Regression tests for the crash-recovery bugs the chaos harness exposed:
// the in-flight dedup race (a resend racing a slow handler returned the
// previous message's cached reply), the crash-restart blackhole (a
// re-created sender's fresh IDs were swallowed by the receiver's dedup
// high-water mark), and stale-incarnation fencing. All run on virtual time.

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestSlowHandlerResendGetsGenuineReply(t *testing.T) {
	// Delay 10ms per leg, ack timeout 15ms, handler takes 50ms of virtual time:
	// the resend reaches the server at t=25ms while the first delivery's
	// handler is still running. Before the in-flight fix the duplicate
	// returned the previous (empty) cached reply, and the caller's Call
	// completed with a stale payload at t=35ms instead of the genuine
	// result at t=70ms.
	cfg := DefaultBusConfig()
	cfg.AckTimeout = 15 * time.Millisecond
	cfg.MaxRetries = 20
	bus, _ := simBus(t, cfg)
	bus.SetFaultHook(delayHook(10 * time.Millisecond))
	var calls atomic.Int64
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		calls.Add(1)
		if err := bus.Clock().Sleep(nil, 50*time.Millisecond); err != nil {
			return nil, err
		}
		return []byte("genuine:" + string(m.Payload)), nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	out, err := client.Call("server", "work", []byte("x"))
	if err != nil {
		t.Fatalf("Call: %v", err)
	}
	if string(out) != "genuine:x" {
		t.Fatalf("Call returned %q, want the genuine handler reply", out)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want exactly once", got)
	}
}

func TestRestartedSenderNotBlackholed(t *testing.T) {
	// A sender that crashes and re-registers restarts its ID sequence at 1.
	// Without incarnation numbers the receiver's seen[from] stays at the old
	// high-water mark and every post-restart message is acked with an empty
	// payload, never reaching the handler.
	bus, _ := simBus(t, DefaultBusConfig())
	var handled atomic.Int64
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		handled.Add(1)
		return append([]byte("ok:"), m.Payload...), nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	for i := 0; i < 5; i++ {
		if _, err := client.Call("server", "x", []byte{byte(i)}); err != nil {
			t.Fatalf("pre-restart Call %d: %v", i, err)
		}
	}
	// Crash and restart the client endpoint.
	bus.Remove("client")
	restarted, err := bus.Endpoint("client", nil)
	if err != nil {
		t.Fatalf("re-Endpoint: %v", err)
	}
	if restarted.Incarnation() != client.Incarnation()+1 {
		t.Fatalf("incarnation = %d after restart, want %d",
			restarted.Incarnation(), client.Incarnation()+1)
	}
	out, err := restarted.Call("server", "x", []byte("post"))
	if err != nil {
		t.Fatalf("post-restart Call: %v", err)
	}
	if string(out) != "ok:post" {
		t.Fatalf("post-restart reply = %q; restarted sender was blackholed", out)
	}
	if got := handled.Load(); got != 6 {
		t.Fatalf("handler ran %d times, want 6", got)
	}
}

func TestStaleIncarnationFenced(t *testing.T) {
	// Once the receiver has heard from incarnation 2, a message hand-crafted
	// from incarnation 1 (a zombie of the dead instance) is rejected.
	bus, _ := simBus(t, DefaultBusConfig())
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return []byte("ok"), nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	first, _ := bus.Endpoint("client", nil)
	bus.Remove("client")
	second, err := bus.Endpoint("client", nil)
	if err != nil {
		t.Fatalf("re-Endpoint: %v", err)
	}
	if _, err := second.Call("server", "x", nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	dst, _ := bus.lookup("server")
	_, err = dst.handle(Message{ID: 99, Inc: first.Incarnation(), From: "client", To: "server", Kind: "x"})
	if !errors.Is(err, ErrStaleIncarnation) {
		t.Fatalf("zombie handle = %v, want ErrStaleIncarnation", err)
	}
}

func TestFaultHookPartition(t *testing.T) {
	// A hook that cuts client<->server makes calls time out; clearing it
	// restores delivery. The reply leg is consulted with From/To swapped,
	// so a one-directional rule still cuts the round trip.
	cfg := DefaultBusConfig()
	cfg.AckTimeout = 2 * time.Millisecond
	cfg.MaxRetries = 3
	bus, _ := simBus(t, cfg)
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return m.Payload, nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	bus.SetFaultHook(func(m Message) Fate {
		if (m.From == "client" && m.To == "server") || (m.From == "server" && m.To == "client") {
			return Fate{Drop: true}
		}
		return Fate{}
	})
	if _, err := client.Call("server", "x", nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("partitioned Call = %v, want ErrTimeout", err)
	}
	bus.SetFaultHook(nil)
	out, err := client.Call("server", "x", []byte("healed"))
	if err != nil || string(out) != "healed" {
		t.Fatalf("healed Call = %q, %v", out, err)
	}
}

func TestFaultHookStragglerLatency(t *testing.T) {
	// Injected per-leg delay shows up as virtual time: a 30ms straggler on
	// both legs costs >= 60ms of virtual time but microseconds of wall time.
	cfg := DefaultBusConfig()
	cfg.AckTimeout = 200 * time.Millisecond
	bus, sim := simBus(t, cfg)
	if _, err := bus.Endpoint("server", func(m Message) ([]byte, error) {
		return m.Payload, nil
	}); err != nil {
		t.Fatalf("Endpoint: %v", err)
	}
	client, _ := bus.Endpoint("client", nil)
	bus.SetFaultHook(func(m Message) Fate { return Fate{Delay: 30 * time.Millisecond} })
	if _, err := client.Call("server", "x", nil); err != nil {
		t.Fatalf("Call: %v", err)
	}
	if sim.Elapsed() < 60*time.Millisecond {
		t.Fatalf("virtual time advanced only %v, want >= 60ms of injected latency", sim.Elapsed())
	}
}
