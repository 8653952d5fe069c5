package worker

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/transport"
)

// guardGoroutines fails the test if goroutines outlive Fleet.Close (and the
// rest of the cleanup stack). Register before creating fleets or buses.
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

func dataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	d, err := data.GenGaussianMixture(21, n, 4, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	return d
}

func fleet(t *testing.T, workers, tbs int, bus *transport.Bus) *Fleet {
	t.Helper()
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    workers,
		TotalBatch: tbs,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       21,
		Bus:        bus,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func TestNewFleetValidation(t *testing.T) {
	d := dataset(t, 128)
	cases := []FleetConfig{
		{Dataset: nil, LayerSizes: []int{4, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{4, 3}, Workers: 0, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{4, 3}, Workers: 3, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{4}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{5, 16, 3}, Workers: 2, TotalBatch: 8, LR: 0.1}, // 4 features
		{Dataset: d, LayerSizes: []int{4, 16, 7}, Workers: 2, TotalBatch: 8, LR: 0.1}, // 3 classes
		{Dataset: d, LayerSizes: []int{4, 3}, Workers: 2, TotalBatch: 8, LR: 0},
	}
	for i, cfg := range cases {
		if _, err := NewFleet(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestFleetTrains(t *testing.T) {
	f := fleet(t, 4, 64, nil)
	var first, last float64
	for i := 0; i < 100; i++ {
		loss, err := f.Step()
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first*0.75 {
		t.Fatalf("loss barely moved: %v -> %v", first, last)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged")
	}
	if f.Iteration() != 100 {
		t.Fatalf("Iteration = %d", f.Iteration())
	}
}

func TestFleetScaleOutViaProtocol(t *testing.T) {
	f := fleet(t, 2, 32, nil)
	for i := 0; i < 10; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	// The new agents report over the bus asynchronously; keep training
	// until a coordination picks the adjustment up.
	deadline := time.Now().Add(5 * time.Second)
	for f.NumWorkers() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("adjustment never applied; workers = %d", f.NumWorkers())
		}
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after scale-out")
	}
	// Training continues at 4 workers.
	for i := 0; i < 10; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step after scale-out: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after scale-out training")
	}
}

func TestFleetScaleInViaProtocol(t *testing.T) {
	f := fleet(t, 4, 32, nil)
	for i := 0; i < 5; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if err := f.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	// Scale-in is immediately Ready; the next step applies it.
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if f.NumWorkers() != 2 {
		t.Fatalf("workers = %d, want 2", f.NumWorkers())
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step after scale-in: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after scale-in")
	}
}

func TestFleetScaleRequestsValidated(t *testing.T) {
	f := fleet(t, 2, 32, nil)
	if err := f.RequestScaleOut(0); err == nil {
		t.Fatal("zero scale-out accepted")
	}
	if err := f.RequestScaleOut(3); err == nil {
		t.Fatal("indivisible scale-out accepted") // 32 % 5 != 0
	}
	if err := f.RequestScaleIn(2); err == nil {
		t.Fatal("scale-in to zero accepted")
	}
	if err := f.RequestScaleIn(0); err == nil {
		t.Fatal("zero scale-in accepted")
	}
}

func TestFleetSurvivesLossyBus(t *testing.T) {
	guardGoroutines(t)
	// The lossy bus runs on virtual time: the resend protocol's ack
	// timeouts cost nothing in wall time.
	sim := clock.NewSim(time.Unix(0, 0))
	t.Cleanup(sim.AutoAdvance(0))
	cfg := transport.DefaultBusConfig()
	cfg.AckTimeout = 4 * time.Millisecond
	cfg.MaxRetries = 100
	cfg.Clock = sim
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	rng := rand.New(rand.NewSource(5))
	var mu sync.Mutex
	bus.SetFaultHook(func(transport.Message) transport.Fate {
		mu.Lock()
		defer mu.Unlock()
		return transport.Fate{Drop: rng.Float64() < 0.3}
	})
	f := fleet(t, 2, 32, bus)
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut under loss: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for f.NumWorkers() != 4 {
		if time.Now().After(deadline) {
			t.Fatal("adjustment lost on lossy bus")
		}
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent")
	}
}

func TestFleetStartLifecycle(t *testing.T) {
	f := fleet(t, 2, 32, nil)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if err := f.Start(ctx); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := f.Start(ctx); err == nil {
		t.Fatal("double Start accepted")
	}
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step after Start: %v", err)
	}
	// Cancelling the parent context closes the fleet (asynchronously, via
	// context.AfterFunc).
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := f.Start(context.Background())
		if err != nil && strings.Contains(err.Error(), "closed") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet never closed after ctx cancel; Start = %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	f.Close() // idempotent
}

func TestFleetLivenessDetectsSilentWorkers(t *testing.T) {
	guardGoroutines(t)
	// Everything — bus, heartbeats, monitor ticker — runs on one sim clock;
	// the default 500ms TTL expires in microseconds of wall time.
	sim := clock.NewSim(time.Unix(0, 0))
	t.Cleanup(sim.AutoAdvance(0))
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 256),
		LayerSizes: []int{4, 8, 3},
		Workers:    2,
		TotalBatch: 16,
		LR:         0.05,
		Seed:       21,
		Clock:      sim,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	if err := f.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if got := f.DeadWorkers(); len(got) != 0 {
		t.Fatalf("fresh fleet has dead workers: %v", got)
	}
	// No Steps happen, so no heartbeats: the monitor must declare every
	// agent dead once virtual time passes the TTL.
	deadline := time.Now().Add(5 * time.Second)
	for len(f.DeadWorkers()) < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("monitor never flagged silent workers; dead = %v", f.DeadWorkers())
		}
		time.Sleep(time.Millisecond)
	}
	dead := f.DeadWorkers()
	sort.Strings(dead)
	if dead[0] != "agent-0" || dead[1] != "agent-1" {
		t.Fatalf("dead = %v, want [agent-0 agent-1]", dead)
	}
}

func TestFleetEvaluate(t *testing.T) {
	f := fleet(t, 2, 32, nil)
	for i := 0; i < 60; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	_, acc, err := f.Evaluate(dataset(t, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0.5 {
		t.Fatalf("accuracy %.3f too low", acc)
	}
}

// TestFleetSetTotalBatchProgressive: a batch change by k takes the learning
// rate from where it is to k times that — over the ramp, or at once — and a
// change in the middle of a ramp starts from the rate the ramp has reached.
// ForceLR pins the rate, and Diverged watches the parameters.
func TestFleetSetTotalBatchProgressive(t *testing.T) {
	f := fleet(t, 2, 32, nil)
	steps(t, f, 5)
	if err := f.SetTotalBatch(64, 10, true); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	if f.TotalBatch() != 64 || f.LR() != 0.05 {
		t.Fatalf("TBS %d, LR %v right after the change: want 64 and the unramped 0.05", f.TotalBatch(), f.LR())
	}
	steps(t, f, 5)
	mid := f.LR()
	if math.Abs(mid-0.075) > 1e-12 {
		t.Fatalf("LR halfway up the ramp = %v, want 0.075", mid)
	}
	if err := f.SetTotalBatch(128, 10, true); err != nil {
		t.Fatalf("SetTotalBatch mid-ramp: %v", err)
	}
	if got := f.LR(); got != mid {
		t.Fatalf("LR right after a mid-ramp change = %v, want the %v reached", got, mid)
	}
	steps(t, f, 10)
	if got := f.LR(); got != 2*mid {
		t.Fatalf("LR after the second ramp = %v, want %v", got, 2*mid)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after batch change")
	}
	if err := f.SetTotalBatch(33, 10, true); err == nil {
		t.Fatal("indivisible batch accepted")
	}

	// Immediate mode: the rate moves with the batch, at once.
	if err := f.SetTotalBatch(256, 10, false); err != nil {
		t.Fatalf("SetTotalBatch immediate: %v", err)
	}
	if got := f.LR(); got != 4*mid {
		t.Fatalf("immediate LR = %v, want %v", got, 4*mid)
	}

	// ForceLR drops the ramp in progress and holds.
	if err := f.SetTotalBatch(512, 10, true); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	if err := f.ForceLR(0.01); err != nil {
		t.Fatalf("ForceLR: %v", err)
	}
	steps(t, f, 3)
	if got := f.LR(); got != 0.01 {
		t.Fatalf("LR after ForceLR(0.01) and 3 steps = %v", got)
	}
	if err := f.ForceLR(0); err == nil {
		t.Fatal("ForceLR(0) accepted")
	}

	if f.Diverged() {
		t.Fatal("a clean fleet reads as diverged")
	}
	f.mu.Lock()
	f.agents[0].rep.Poison()
	f.mu.Unlock()
	if !f.Diverged() {
		t.Fatal("a NaN-poisoned replica does not read as diverged")
	}
}

// TestFleetBucketedMatchesWholeVector pins down the accuracy contract of
// bucketing at fleet level: buckets shift each element's ring rotation
// anchor, so the averaged gradients are the same real-number mean under a
// different IEEE accumulation order, and training must track the
// whole-vector configuration to tight tolerance (the bitwise guarantee
// belongs to BucketElems=0, pinned in the ddp package's differential tests).
func TestFleetBucketedMatchesWholeVector(t *testing.T) {
	run := func(bucketElems int) []float64 {
		guardGoroutines(t)
		f, err := NewFleet(FleetConfig{
			Dataset: dataset(t, 1024), LayerSizes: []int{4, 24, 3}, Workers: 3, TotalBatch: 24,
			LR: 0.05, Momentum: 0.9, Seed: 21, BucketElems: bucketElems,
		})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		t.Cleanup(f.Close)
		steps(t, f, 20)
		return exportState(t, f)
	}
	whole, bucketed := run(0), run(60)
	for i := range whole {
		if diff, scale := math.Abs(whole[i]-bucketed[i]), math.Max(1, math.Abs(whole[i])); diff > 1e-9*scale {
			t.Fatalf("state %d drifted: whole-vector %v vs bucketed %v", i, whole[i], bucketed[i])
		}
	}
}
