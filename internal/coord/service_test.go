package coord

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// setupService builds a service on a sim-clock bus: ack timeouts and resends
// run on auto-advanced virtual time.
func setupService(t *testing.T, cfg transport.BusConfig) (*transport.Bus, *AM) {
	t.Helper()
	sim := clock.NewSim(time.Unix(0, 0))
	t.Cleanup(sim.AutoAdvance(0))
	cfg.Clock = sim
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	am, err := NewAM("job1", store.New())
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	if _, err := NewService(am, bus, "am"); err != nil {
		t.Fatalf("NewService: %v", err)
	}
	return bus, am
}

func TestServiceFullAdjustmentOverBus(t *testing.T) {
	bus, _ := setupService(t, transport.DefaultBusConfig())
	sched, err := NewClient(bus, "scheduler", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	w5, err := NewClient(bus, "w5", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	existing, err := NewClient(bus, "w1", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}

	if err := sched.RequestAdjustment(ScaleOut, []string{"w5"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	// Existing worker coordinates before the new worker reported: no
	// adjustment, no blocking.
	if _, ok, err := existing.Coordinate(); ok || err != nil {
		t.Fatalf("early Coordinate = %v, %v", ok, err)
	}
	st, err := existing.AMState()
	if err != nil {
		t.Fatalf("AMState: %v", err)
	}
	if st.State != Pending || len(st.Pending) != 1 {
		t.Fatalf("AMState = %+v", st)
	}
	if err := w5.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	adj, ok, err := existing.Coordinate()
	if err != nil || !ok {
		t.Fatalf("Coordinate = %v, %v", ok, err)
	}
	if adj.Kind != ScaleOut || adj.Add[0] != "w5" {
		t.Fatalf("adjustment = %+v", adj)
	}
}

func TestServiceSurvivesMessageLoss(t *testing.T) {
	cfg := transport.DefaultBusConfig()
	cfg.DropRate = 0.3
	cfg.Seed = 99
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 60
	bus, am := setupService(t, cfg)
	sched, err := NewClient(bus, "scheduler", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	w5, err := NewClient(bus, "w5", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := sched.RequestAdjustment(ScaleOut, []string{"w5"}, nil); err != nil {
		t.Fatalf("RequestAdjustment under loss: %v", err)
	}
	if err := w5.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady under loss: %v", err)
	}
	if am.State() != Ready {
		t.Fatalf("state = %v, want Ready", am.State())
	}
	// Despite resends, the adjustment is delivered exactly once.
	existing, err := NewClient(bus, "w1", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	var delivered int
	for i := 0; i < 5; i++ {
		_, ok, err := existing.Coordinate()
		if err != nil {
			t.Fatalf("Coordinate: %v", err)
		}
		if ok {
			delivered++
		}
	}
	if delivered != 1 {
		t.Fatalf("adjustment delivered %d times, want 1", delivered)
	}
}

func TestServiceErrorsPropagate(t *testing.T) {
	bus, _ := setupService(t, transport.DefaultBusConfig())
	sched, err := NewClient(bus, "scheduler", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	// Invalid request: scale-out without workers.
	if err := sched.RequestAdjustment(ScaleOut, nil, nil); err == nil {
		t.Fatal("invalid request accepted over bus")
	}
	// Report for a worker not in any adjustment.
	w9, err := NewClient(bus, "w9", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if err := w9.ReportReady("w9"); err == nil {
		t.Fatal("stray report accepted")
	}
}

func TestServiceUnknownKind(t *testing.T) {
	bus, _ := setupService(t, transport.DefaultBusConfig())
	client, err := NewClient(bus, "x", "am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	if _, err := client.call(context.Background(), "bogus.kind", nil); err == nil {
		t.Fatal("unknown kind accepted")
	}
}

// TestServiceCreatedUnderTraffic is the regression test for a race
// Fleet.RecoverAM had: a joiner's bring-up goroutine retries ReportReady (and
// a worker its beats) against the AM's bus name while the successor service
// is being created, so the handler can run the moment the endpoint exists.
// The service used to get its tracer and monitor from setters after that
// moment. Now the first message it handles finds both, every round, and
// under -race nothing the handler reads is written after registration.
func TestServiceCreatedUnderTraffic(t *testing.T) {
	bus := transport.NewBus(transport.DefaultBusConfig())
	defer bus.Close()
	joiner, err := NewClient(bus, "joiner", "am")
	if err != nil {
		t.Fatal(err)
	}
	beater, err := NewClient(bus, "beater", "am")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		am, err := NewAM("job", store.New())
		if err != nil {
			t.Fatal(err)
		}
		if err := am.RequestAdjustment(ScaleOut, []string{"w9"}, nil); err != nil {
			t.Fatal(err)
		}
		hb, err := NewHeartbeatMonitor(clock.Wall{})
		if err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRecorder(clock.Wall{}, 64)
		// Both callers are retrying before the service exists and stop at the
		// first reply a handler gives them (or when the bus closes).
		retrying := make(chan struct{}, 2)
		errs := make(chan error, 2)
		hammer := func(call func() error) {
			err := call()
			retrying <- struct{}{}
			for errors.Is(err, transport.ErrNoEndpoint) {
				err = call()
			}
			errs <- err
		}
		go hammer(func() error { return joiner.ReportReady("w9") })
		go hammer(func() error { return beater.Beats([]string{"w1"}) })
		<-retrying
		<-retrying
		svc, err := NewServiceWith(context.Background(), am, bus, "am", rec, hb)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 2; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("round %d: first call against the new service: %v", round, err)
			}
		}
		svc.Close()
		traced := 0
		for _, sr := range rec.Snapshot() {
			if sr.Name == "coord.report_ready" {
				traced++
			}
		}
		if traced != 1 {
			t.Fatalf("round %d: %d coord.report_ready spans, want the first report traced", round, traced)
		}
		if got := hb.Tracked(); len(got) != 1 || got[0] != "w1" {
			t.Fatalf("round %d: monitor tracks %v, want the first beat", round, got)
		}
	}
}
