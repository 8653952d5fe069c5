package worker

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// The recycling invariants of DESIGN §9 ("Rig life-cycle"), each by a test.

// poison overwrites with NaN everything in a parked rig that its next agent
// must write before reading: hooked to Fleet.onPark, it makes a stale read
// end in a NaN loss or a diverged replica.
func poison(r *rig) {
	r.rep.Poison()
	x, y := r.batchX.Data[:cap(r.batchX.Data)], r.batchY[:cap(r.batchY)]
	for i := range x {
		x[i] = math.NaN()
	}
	for i := range y {
		y[i] = -1
	}
}

// rigCounts reads the fleet's rig holders: agents, joiners awaiting
// admission, spares.
func rigCounts(f *Fleet) (live, pending, spare int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.agents), len(f.spawned), len(f.spare)
}

// failAdmission requests n joiners, lets them all report (and calls
// reported, if any), kills one and takes the Step that would have admitted
// them: the admission is rolled back, no training step runs, and the joiners'
// rigs end up spare.
func failAdmission(t *testing.T, f *Fleet, n int, reported func()) {
	t.Helper()
	if err := f.RequestScaleOut(n); err != nil {
		t.Fatalf("RequestScaleOut(%d): %v", n, err)
	}
	waitReady(t, f)
	if reported != nil {
		reported()
	}
	f.mu.Lock()
	for _, j := range f.spawned {
		j.agent.kill()
		break
	}
	f.mu.Unlock()
	if _, err := f.Step(); !errors.Is(err, errAgentDead) {
		t.Fatalf("admitting Step = %v, want the dead joiner's error", err)
	}
}

// TestPoisonedSpareRigsDoNotShow: the fixed elastic script of
// TestPlannedInstallsMatchSequentialSingleSource, run on a fleet whose every
// joiner and rejoiner starts on a spare rig filled with NaN — state arena,
// gradient arena, accumulate scratch, workspaces, batch — ends on
// the hash the sequential single-source reference ends on, with the replicas
// consistent after every elastic operation on the way.
func TestPoisonedSpareRigsDoNotShow(t *testing.T) {
	guardGoroutines(t)
	ckpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	f := placedFleet(t, 4096, nil, ckpt)
	f.onPark = poison
	// Six spares before the script starts, without a training step taken.
	failAdmission(t, f, 6, nil)
	if live, pending, spare := rigCounts(f); live != 2 || pending != 0 || spare != 6 {
		t.Fatalf("%d live, %d pending, %d spare after the failed admission, want 2, 0, 6", live, pending, spare)
	}

	ops := fleetOps(t, f)
	consistent := func(after string) {
		if !f.ReplicasConsistent() {
			t.Fatalf("replicas diverged after %s", after)
		}
	}
	got := runElasticScript(t, f, elasticOps{
		scaleOut: func(n int) { ops.scaleOut(n); consistent("scale-out") },
		rejoin:   func(name string) { ops.rejoin(name); consistent("rejoin") },
		restore:  func() { ops.restore(); consistent("restore") },
	})
	// Eight rigs in all: the script's six joiners and its rejoiner built
	// none, so they ran on the poisoned ones.
	if live, _, spare := rigCounts(f); live+spare != 8 {
		t.Fatalf("%d live + %d spare rigs after the script, want the 8 of its peak", live, spare)
	}

	refCkpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	ref := placedFleet(t, 4096, nil, refCkpt)
	want := runElasticScript(t, ref, referenceOps(t, ref, refCkpt))
	if got != want {
		t.Fatalf("final state hash %x on poisoned spare rigs, the sequential single-source reference ends at %x", got, want)
	}
}

// TestRigsBoundedByPeakWorkers drives random scripts of scale-out, scale-in,
// crash, sweep, rejoin and failed admission. At every point rigs — live,
// awaiting admission, spare — number at most the most workers the fleet had
// (or had requested) at once, the replicas stay consistent, and after Close
// the goroutine count and every agent's bus endpoint are gone.
func TestRigsBoundedByPeakWorkers(t *testing.T) {
	const tbs = 24
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			guardGoroutines(t)
			rng := rand.New(rand.NewSource(seed))
			bus := transport.NewBus(transport.DefaultBusConfig())
			t.Cleanup(bus.Close)
			probe, err := bus.Endpoint("probe", nil)
			if err != nil {
				t.Fatal(err)
			}
			baseline := runtime.NumGoroutine()
			f, err := NewFleet(FleetConfig{
				Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: tbs,
				LR: 0.05, Momentum: 0.9, Seed: 21, Bus: bus, Cluster: twoNodeCluster(t), BucketElems: 32,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(f.Close)
			f.onPark = poison

			peak := 0
			check := func(after string) {
				t.Helper()
				live, pending, spare := rigCounts(f)
				peak = max(peak, live+pending)
				if live+pending+spare > peak {
					t.Fatalf("after %s: %d live + %d pending + %d spare rigs, peak worker count %d", after, live, pending, spare, peak)
				}
				if !f.ReplicasConsistent() {
					t.Fatalf("after %s: replicas diverged", after)
				}
			}
			fits := func(n int) bool { return n >= 1 && n <= 8 && tbs%n == 0 }
			var crashed []string
			check("construction")
			for op := 0; op < 60; op++ {
				n := f.NumWorkers()
				k := 1 + rng.Intn(3)
				switch rng.Intn(8) {
				case 0:
					if fits(n + k) {
						scaleOutNow(t, f, k)
						check("scale-out")
					}
				case 1:
					if fits(n + k) {
						failAdmission(t, f, k, func() { check("request") }) // the joiners hold rigs, and count
						check("failed admission")
					}
				case 2:
					if fits(n - k) {
						if err := f.RequestScaleIn(k); err != nil {
							t.Fatal(err)
						}
						steps(t, f, 1)
						check("scale-in")
					}
				case 3, 4:
					if fits(n - 1) {
						f.mu.Lock()
						victim := f.agents[rng.Intn(n)].Name
						f.mu.Unlock()
						if err := f.CrashWorker(victim); err != nil {
							t.Fatal(err)
						}
						check("crash") // dead, not swept: still holds its rig
						if rng.Intn(2) == 0 {
							steps(t, f, 1) // the Step sweeps it out
							crashed = append(crashed, victim)
							check("sweep")
						} else if err := f.RejoinWorker(victim); err != nil { // sweeps it out itself
							t.Fatal(err)
						} else {
							check("crash and rejoin")
						}
					}
				case 5:
					if len(crashed) > 0 && fits(n+1) {
						if err := f.RejoinWorker(crashed[0]); err != nil {
							t.Fatal(err)
						}
						crashed = crashed[1:]
						check("rejoin")
					}
				default:
					if _, err := f.Step(); err != nil {
						t.Fatalf("Step: %v", err)
					}
					check("step")
				}
			}

			f.mu.Lock()
			issued := f.nextID
			f.mu.Unlock()
			f.Close()
			waitGoroutines(t, baseline, "after Close")
			for i := 0; i < issued; i++ {
				wantNoEndpoint(t, probe, fmt.Sprintf("agent-%d", i))
			}
		})
	}
}

// elasticRound is one full round of elastic events on a 2-worker fleet: grow
// to 4, train, lose a worker, sweep it out, take it back, shrink to 2.
func elasticRound(t *testing.T, f *Fleet) {
	t.Helper()
	scaleOutNow(t, f, 2)
	steps(t, f, 2)
	f.mu.Lock()
	victim := f.agents[len(f.agents)-1].Name
	f.mu.Unlock()
	if err := f.CrashWorker(victim); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1)
	if err := f.RejoinWorker(victim); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1)
	if err := f.RequestScaleIn(2); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1)
	if got := f.NumWorkers(); got != 2 {
		t.Fatalf("%d workers at the end of the round, want 2", got)
	}
}

// TestWarmElasticRoundAllocatesNoState: after priming, a full
// round — scale-out, crash and sweep, rejoin, scale-in, with four group
// reconstructions between a one-node and a two-node placement — allocates
// less than one gradient vector in all, where every joiner used to cost its
// rig (some seven of them) and every new group its scratch.
func TestWarmElasticRoundAllocatesNoState(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	guardGoroutines(t)
	const hidden = 8192
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, hidden, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Cluster: smallCluster(t), BucketElems: hidden,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	steps(t, f, 1)
	// Priming. The first round builds the two rigs and the group scratch that
	// the rounds after it reuse. The two joiners swap rigs from one round to
	// the next (spares are taken last parked first) and only one of them
	// trains in the three-worker group, so it takes a second round for both
	// rigs to hold a workspace for that group's batch shape too.
	elasticRound(t, f)
	elasticRound(t, f)
	gradientBytes := uint64(8 * (4*hidden + hidden + hidden*3 + 3))
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		runtime.ReadMemStats(&before)
		elasticRound(t, f)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got >= gradientBytes {
			t.Fatalf("warm round %d allocated %d bytes, want under one gradient vector (%d)", round, got, gradientBytes)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged")
	}
}

// amReady reports whether every joiner of the pending adjustment has
// reported, without taking the fleet lock.
func amReady(am *coord.AM) bool { return am.State() == coord.Ready }

// TestColdJoinersComeUpOffTheFleetLock: with no spare rig to hand, joiners
// build their own — and build, publish and report without the fleet lock,
// which here is held by the test from the moment the request returns, as a
// Step holds it for a whole iteration. The first Step after that admits them.
func TestColdJoinersComeUpOffTheFleetLock(t *testing.T) {
	guardGoroutines(t)
	reg := telemetry.NewRegistry()
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 8192, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	steps(t, f, 1)
	built := reg.Counter("worker_rig_built_total").Value()
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	am := f.am
	deadline := time.Now().Add(10 * time.Second)
	for !amReady(am) {
		if time.Now().After(deadline) {
			f.mu.Unlock()
			t.Fatal("joiners did not report while the fleet lock was held: their start-up needs it")
		}
		time.Sleep(time.Millisecond)
	}
	for name, j := range f.spawned {
		select {
		case <-j.up:
			if j.agent == nil || j.agent.rig == nil {
				t.Errorf("%s reported without an agent on a rig", name)
			}
		default:
			t.Errorf("%s reported before it was published", name)
		}
	}
	f.mu.Unlock()
	if got := reg.Counter("worker_rig_built_total").Value() - built; got != 2 {
		t.Fatalf("%d rigs built by the cold scale-out, want 2", got)
	}
	steps(t, f, 1)
	if got := f.NumWorkers(); got != 4 {
		t.Fatalf("%d workers after the first Step past the reports, want 4", got)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged")
	}
}

// TestColdScaleOutRacingStep: a cold RequestScaleOut issued while another
// goroutine steps the fleet without pause is admitted within two Steps of its
// last report — the one in flight when the report landed, which may have
// coordinated before it, and the next — and the request itself does not wait
// out a build. Run under -race, this is also the guard on what a joiner's
// goroutine touches while a Step holds the lock.
func TestColdScaleOutRacingStep(t *testing.T) {
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 4096, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, BucketElems: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	f.mu.Lock()
	am := f.am
	f.mu.Unlock()

	stop := make(chan struct{})
	var stepper sync.WaitGroup
	stepper.Add(1)
	go func() {
		defer stepper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := f.Step(); err != nil {
				t.Errorf("Step: %v", err)
				return
			}
		}
	}()
	defer func() {
		close(stop)
		stepper.Wait()
	}()

	for want := 4; want <= 8; want += 2 { // 2 -> 4 -> 6 -> 8, every joiner cold
		if err := f.RequestScaleOut(2); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for !amReady(am) && f.NumWorkers() != want {
			if time.Now().After(deadline) {
				t.Fatal("joiners never reported ready")
			}
			time.Sleep(200 * time.Microsecond)
		}
		reported := f.Iteration() // Steps completed when the last report was seen
		for f.Iteration() < reported+2 {
			if time.Now().After(deadline) {
				t.Fatal("the fleet stopped stepping")
			}
			time.Sleep(200 * time.Microsecond)
		}
		if got := f.NumWorkers(); got != want {
			t.Fatalf("%d workers two Steps after the last report, want %d", got, want)
		}
	}
	if _, _, spare := rigCounts(f); spare != 0 {
		t.Fatalf("%d spare rigs in a fleet that only grew", spare)
	}
}

// TestRigTelemetry: which joiners ran on a recycled rig and which had to build
// one is in the counters, the spare-rig gauge and the trace — a report_ready
// span says rig=built and parents the build on the joiner's own track, or
// says rig=reused and has no such child.
func TestRigTelemetry(t *testing.T) {
	guardGoroutines(t)
	rec := telemetry.NewRecorder(clock.Wall{}, 0)
	reg := telemetry.NewRegistry()
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Tracer: rec, Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	metrics := func(when string, built, reused int64, spare float64) {
		t.Helper()
		if got := reg.Counter("worker_rig_built_total").Value(); got != built {
			t.Errorf("%s: worker_rig_built_total = %d, want %d", when, got, built)
		}
		if got := reg.Counter("worker_rig_reused_total").Value(); got != reused {
			t.Errorf("%s: worker_rig_reused_total = %d, want %d", when, got, reused)
		}
		if got := reg.Gauge("worker_spare_rigs").Value(); got != spare {
			t.Errorf("%s: worker_spare_rigs = %v, want %v", when, got, spare)
		}
	}
	metrics("founding agents", 2, 0, 0)
	scaleOutNow(t, f, 2) // cold: agent-2, agent-3
	metrics("cold scale-out", 4, 0, 0)
	if err := f.RequestScaleIn(2); err != nil {
		t.Fatal(err)
	}
	steps(t, f, 1)
	metrics("scale-in", 4, 0, 2)
	scaleOutNow(t, f, 2) // warm: agent-4, agent-5
	metrics("warm scale-out", 4, 2, 0)

	spans := waitSpans(t, rec, "worker.report_ready", 4)
	builds := map[uint64]telemetry.SpanRecord{} // by parent
	for _, s := range spans {
		if s.Name == "worker.build_rig" {
			builds[s.Parent] = s
		}
	}
	want := map[string]string{"agent-2": "built", "agent-3": "built", "agent-4": "reused", "agent-5": "reused"}
	for _, s := range spans {
		if s.Name != "worker.report_ready" {
			continue
		}
		how, ok := want[s.Proc]
		if !ok {
			t.Fatalf("report_ready span on %q", s.Proc)
		}
		delete(want, s.Proc)
		if got, _ := s.Attr("rig"); got != how {
			t.Errorf("%s reported rig=%q, want %q", s.Proc, got, how)
		}
		b, hasBuild := builds[s.ID]
		switch {
		case how == "built" && (!hasBuild || b.Proc != s.Proc || b.Trace != s.Trace):
			t.Errorf("%s: build span %+v, want a child of its report on its own track", s.Proc, b)
		case how == "built" && (b.Start.Before(s.Start) || b.End.After(s.End)):
			t.Errorf("%s: build [%v, %v] outside its report [%v, %v]", s.Proc, b.Start, b.End, s.Start, s.End)
		case how == "reused" && hasBuild:
			t.Errorf("%s reused a rig and still has a build span", s.Proc)
		}
	}
	if len(want) != 0 {
		t.Errorf("no report_ready span for %v", want)
	}
}
