package transport

// The fault hook's partitions and straggler latency, on virtual time.

import (
	"errors"
	"testing"
	"time"
)

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
