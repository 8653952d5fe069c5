package coord

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sync"
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
	if _, err := NewServiceCtx(context.Background(), am, bus, "am"); err != nil {
		t.Fatalf("NewServiceCtx: %v", err)
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
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 60
	bus, am := setupService(t, cfg)
	rng := rand.New(rand.NewSource(99))
	var mu sync.Mutex
	bus.SetFaultHook(func(transport.Message) transport.Fate {
		mu.Lock()
		defer mu.Unlock()
		return transport.Fate{Drop: rng.Float64() < 0.3}
	})
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
// Fleet.RecoverAM had: a joiner's bring-up goroutine retries ReportReady
// against the AM's bus name while the successor service is being created,
// so the handler can run the moment the endpoint exists. The service used
// to get its tracer from a setter after that moment. Now the first message
// it handles finds it, every round, and under -race nothing the handler
// reads is written after registration.
func TestServiceCreatedUnderTraffic(t *testing.T) {
	bus := transport.NewBus(transport.DefaultBusConfig())
	defer bus.Close()
	joiner, err := NewClient(bus, "joiner", "am")
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 50; round++ {
		am, err := NewAM("job", store.New())
		if err != nil {
			t.Fatal(err)
		}
		if err := am.RequestAdjustment(0, ScaleOut, []string{"w9"}, nil); err != nil {
			t.Fatal(err)
		}
		rec := telemetry.NewRecorder(clock.Wall{}, 64)
		// The joiner is retrying before the service exists and stops at the
		// first reply a handler gives it (or when the bus closes).
		retrying := make(chan struct{}, 1)
		errs := make(chan error, 1)
		go func() {
			err := joiner.ReportReady("w9")
			retrying <- struct{}{}
			for errors.Is(err, transport.ErrNoEndpoint) {
				err = joiner.ReportReady("w9")
			}
			errs <- err
		}()
		<-retrying
		svc, err := NewServiceWith(context.Background(), am, bus, "am", rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := <-errs; err != nil {
			t.Fatalf("round %d: first call against the new service: %v", round, err)
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
	}
}

// TestLostCoordReplyAcrossAMRestart is the regression test for an adjustment
// lost on the bus: the reply leg of the first worker.coord is dropped, and
// the AM restarts under the same name before the lead's resend. The
// restarted AM recovers adjustment 1 as handed out, so the resend must get
// it back, and the lead must receive it exactly once.
func TestLostCoordReplyAcrossAMRestart(t *testing.T) {
	// Virtual time is advanced by hand: the lead resends only once the
	// restart is complete.
	sim := clock.NewSim(time.Unix(0, 0))
	cfg := transport.DefaultBusConfig()
	cfg.Clock = sim
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	st := store.New()
	am, err := NewAM("job1", st)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewServiceCtx(context.Background(), am, bus, "am")
	if err != nil {
		t.Fatal(err)
	}
	restarted := make(chan struct{})
	var cut sync.Once
	bus.SetFaultHook(func(m transport.Message) transport.Fate {
		drop := false
		if m.Kind == KindCoordinate && m.From == "am" {
			cut.Do(func() {
				defer close(restarted)
				drop = true
				svc.Close()
				am2, err := Recover("job1", st)
				if err == nil {
					svc, err = NewServiceCtx(context.Background(), am2, bus, "am")
				}
				if err != nil {
					t.Errorf("restart: %v", err)
				}
			})
		}
		return transport.Fate{Drop: drop}
	})
	sched, err := NewClient(bus, "scheduler", "am")
	if err != nil {
		t.Fatal(err)
	}
	lead, err := NewClient(bus, "lead", "am")
	if err != nil {
		t.Fatal(err)
	}
	if err := sched.RequestAdjustment(ScaleIn, nil, []string{"w4"}); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	type result struct {
		adj Adjustment
		ok  bool
		err error
	}
	done := make(chan result, 1)
	go func() {
		adj, ok, err := lead.Coordinate()
		done <- result{adj, ok, err}
	}()
	<-restarted
	sim.Advance(cfg.AckTimeout) // the lead's ack timer fires and it resends
	r := <-done
	if r.err != nil || !r.ok || r.adj.Seq != 1 || r.adj.Kind != ScaleIn || !reflect.DeepEqual(r.adj.Remove, []string{"w4"}) {
		t.Fatalf("Coordinate across the restart = %+v, %v, %v; want adjustment 1", r.adj, r.ok, r.err)
	}
	if _, ok, err := lead.Coordinate(); ok || err != nil {
		t.Fatalf("second Coordinate = %v, %v; want nothing", ok, err)
	}
}
