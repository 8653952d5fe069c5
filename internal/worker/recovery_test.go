package worker

// Crash-recovery tests: worker crash + sweep + rejoin, AM crash with
// CAS-fenced recovery from the store, and a scale-out whose ready report
// must survive an AM outage.

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/racecheck"
	"github.com/elan-sys/elan/internal/telemetry"
)

// stepUntil steps the fleet until cond holds, failing after maxSteps.
func stepUntil(t *testing.T, f *Fleet, maxSteps int, cond func() bool, what string) {
	t.Helper()
	for i := 0; i < maxSteps; i++ {
		if cond() {
			return
		}
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step while waiting for %s: %v", what, err)
		}
	}
	if !cond() {
		t.Fatalf("%s did not happen within %d steps", what, maxSteps)
	}
}

func TestCrashedWorkerSweptAndTrainingContinues(t *testing.T) {
	f := fleet(t, 4, 24, nil)
	for i := 0; i < 3; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if err := f.CrashWorker("agent-1"); err != nil {
		t.Fatalf("CrashWorker: %v", err)
	}
	if err := f.CrashWorker("agent-1"); err == nil {
		t.Fatal("double crash accepted")
	}
	// The next step sweeps the dead rank out and trains with 3 workers
	// instead of wedging the collective.
	for i := 0; i < 3; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("post-crash Step %d: %v", i, err)
		}
	}
	if n := f.NumWorkers(); n != 3 {
		t.Fatalf("NumWorkers = %d after crash, want 3", n)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after crash")
	}
}

func TestCrashedWorkerRejoins(t *testing.T) {
	f := fleet(t, 4, 24, nil)
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := f.CrashWorker("agent-2"); err != nil {
		t.Fatalf("CrashWorker: %v", err)
	}
	if _, err := f.Step(); err != nil {
		t.Fatalf("post-crash Step: %v", err)
	}
	if err := f.RejoinWorker("agent-2"); err != nil {
		t.Fatalf("RejoinWorker: %v", err)
	}
	if err := f.RejoinWorker("agent-2"); err == nil {
		t.Fatal("rejoin of an active worker accepted")
	}
	if n := f.NumWorkers(); n != 4 {
		t.Fatalf("NumWorkers = %d after rejoin, want 4", n)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("post-rejoin Step %d: %v", i, err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("rejoined replica diverged")
	}
}

// TestCrashBeforeElasticEventKeepsBatchDivisible: a crash that lands before
// an elastic event — before its request, or between the request and the
// Step that applies it — never leaves a worker count that does not divide
// the total batch, and a scale-in whose agent crashed first is done.
func TestCrashBeforeElasticEventKeepsBatchDivisible(t *testing.T) {
	crash := func(t *testing.T, f *Fleet, names ...string) {
		t.Helper()
		for _, name := range names {
			if err := f.CrashWorker(name); err != nil {
				t.Fatalf("CrashWorker: %v", err)
			}
		}
	}
	cases := []struct {
		name         string
		workers, tbs int
		// before makes the request and the crashes.
		before func(t *testing.T, f *Fleet)
		// refused says the first Step, the one that applies the request,
		// refuses it.
		refused bool
		want    int
	}{
		{"crash then scale-out", 4, 24, func(t *testing.T, f *Fleet) {
			crash(t, f, "agent-1")
			if err := f.RequestScaleOut(2); err == nil { // 3 live + 2
				t.Fatal("scale-out to 5 workers accepted")
			}
		}, false, 3},
		{"scale-out then crash", 4, 24, func(t *testing.T, f *Fleet) {
			if err := f.RequestScaleOut(2); err != nil {
				t.Fatalf("RequestScaleOut: %v", err)
			}
			waitReady(t, f) // the Step that sweeps the crashed agent admits
			crash(t, f, "agent-1")
		}, true, 3},
		{"scale-in then crash of its agent", 4, 24, func(t *testing.T, f *Fleet) {
			if err := f.RequestScaleIn(1); err != nil { // names agent-3
				t.Fatalf("RequestScaleIn: %v", err)
			}
			crash(t, f, "agent-3")
		}, false, 3},
		{"scale-in then crash of others", 10, 40, func(t *testing.T, f *Fleet) {
			if err := f.RequestScaleIn(2); err != nil { // names agent-8 and agent-9
				t.Fatalf("RequestScaleIn: %v", err)
			}
			crash(t, f, "agent-0", "agent-1", "agent-2", "agent-3", "agent-4") // 5 live - 2
		}, true, 5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			f := fleet(t, c.workers, c.tbs, nil)
			c.before(t, f)
			for i := 0; i < 3; i++ {
				_, err := f.Step()
				if tbs, n := f.TotalBatch(), f.NumWorkers(); tbs%n != 0 {
					t.Fatalf("after Step %d: %d workers for a total batch of %d", i, n, tbs)
				}
				if refuse := i == 0 && c.refused; refuse != (err != nil) {
					t.Fatalf("Step %d = %v, want refused %v", i, err, refuse)
				}
			}
			if n := f.NumWorkers(); n != c.want {
				t.Fatalf("NumWorkers = %d, want %d", n, c.want)
			}
			if !f.ReplicasConsistent() {
				t.Fatal("replicas diverged")
			}
		})
	}
}

// TestCrashDumpCopiesNoRing: the crash paths freeze the flight ring without
// copying it out. With a full default-sized ring (about 1 MB) written since
// the previous dump, CrashWorker and CrashAM each allocate far less than one
// ring, and the dump they leave ends with their crash marker.
func TestCrashDumpCopiesNoRing(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	guardGoroutines(t)
	flight := telemetry.NewFlightRecorder(telemetry.DefaultFlightCapacity)
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 4, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21,
		Tracer: telemetry.NewRecorder(clock.Wall{}, 0), Metrics: telemetry.NewRegistry(), Flight: flight,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	steps(t, f, 2)
	if err := f.CrashWorker("agent-1"); err != nil {
		t.Fatalf("warm-up CrashWorker: %v", err)
	}
	if err := f.RejoinWorker("agent-1"); err != nil {
		t.Fatalf("warm-up RejoinWorker: %v", err)
	}
	steps(t, f, 2)

	const limit = 64 << 10
	crash := func(what string, do func() error, proc, marker string) {
		t.Helper()
		for i := 0; i < flight.Capacity(); i++ {
			flight.RecordEvent("test", "filler", time.Time{})
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := do()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if got := after.TotalAlloc - before.TotalAlloc; got >= limit {
			t.Errorf("%s allocated %d bytes, want under %d", what, got, limit)
		}
		_, dump := flight.LastDump()
		if len(dump) != flight.Capacity() {
			t.Fatalf("%s: dump holds %d records, want the full ring of %d", what, len(dump), flight.Capacity())
		}
		if last := dump[len(dump)-1]; last.Proc != proc || last.Name != marker {
			t.Errorf("%s: newest dump record %s/%s, want the crash marker %s/%s", what, last.Proc, last.Name, proc, marker)
		}
	}
	crash("CrashWorker", func() error { return f.CrashWorker("agent-2") }, "fleet-lead", "crash:agent-2")
	crash("CrashAM", func() error { _, err := f.CrashAM(); return err }, "fleet-am", "am-crash")
}

// TestFleetSpanCarriesOnlyStartAndStop: the worker.fleet span stays open
// from Start to Close, so an event per fault would grow a traced fleet's
// heap for as long as it runs. Crashes, rejoins, AM outages and
// checkpoints are carried by counters and the flight recorder instead.
func TestFleetSpanCarriesOnlyStartAndStop(t *testing.T) {
	guardGoroutines(t)
	tr := telemetry.NewRecorder(clock.Wall{}, 0)
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Tracer: tr,
		Checkpoints: checkpoint.NewDeltaStore(checkpoint.DeltaConfig{}),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	if err := f.Start(context.Background()); err != nil {
		t.Fatalf("Start: %v", err)
	}
	for round := 0; round < 3; round++ {
		steps(t, f, 1)
		if err := f.CrashWorker("agent-1"); err != nil {
			t.Fatalf("round %d CrashWorker: %v", round, err)
		}
		steps(t, f, 1) // sweeps the dead agent
		if err := f.RejoinWorker("agent-1"); err != nil {
			t.Fatalf("round %d RejoinWorker: %v", round, err)
		}
		if _, err := f.CrashAM(); err != nil {
			t.Fatalf("round %d CrashAM: %v", round, err)
		}
		steps(t, f, 1)
		if err := f.RecoverAM(); err != nil {
			t.Fatalf("round %d RecoverAM: %v", round, err)
		}
		if _, err := f.SaveCheckpoint(); err != nil {
			t.Fatalf("round %d SaveCheckpoint: %v", round, err)
		}
		if _, err := f.RestoreCheckpoint(); err != nil {
			t.Fatalf("round %d RestoreCheckpoint: %v", round, err)
		}
	}
	f.Close()
	var fleet []telemetry.SpanRecord
	for _, s := range tr.Snapshot() {
		if s.Name == "worker.fleet" {
			fleet = append(fleet, s)
		}
	}
	if len(fleet) != 1 {
		t.Fatalf("got %d worker.fleet spans, want 1", len(fleet))
	}
	var names []string
	for _, ev := range fleet[0].Events {
		names = append(names, ev.Name)
	}
	if len(names) != 2 || names[0] != "start" || names[1] != "stop" {
		t.Fatalf("worker.fleet events = %v, want [start stop]", names)
	}
}

func TestAMCrashRecoveryFencesOldIncarnation(t *testing.T) {
	guardGoroutines(t)
	reg := telemetry.NewRegistry()
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    2,
		TotalBatch: 24,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       21,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)

	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	old, err := f.CrashAM()
	if err != nil {
		t.Fatalf("CrashAM: %v", err)
	}
	if !f.AMDown() {
		t.Fatal("AMDown = false after crash")
	}
	// Training continues through the outage; coordination degrades to skips.
	for i := 0; i < 3; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step during AM outage: %v", err)
		}
	}
	if v := reg.Counter("worker_coord_skips_total").Value(); v < 3 {
		t.Fatalf("worker_coord_skips_total = %d, want >= 3", v)
	}
	if err := f.RecoverAM(); err != nil {
		t.Fatalf("RecoverAM: %v", err)
	}
	// The dead incarnation lost the CAS fence: any write it attempts fails.
	if err := old.RequestAdjustment(old.Seq(), coord.ScaleOut, []string{"zombie"}, nil); !errors.Is(err, coord.ErrFenced) {
		t.Fatalf("old AM write = %v, want ErrFenced", err)
	}
	// The successor coordinates normally: a scale-out goes through it.
	if err := f.RequestScaleOut(1); err != nil {
		t.Fatalf("RequestScaleOut after recovery: %v", err)
	}
	stepUntil(t, f, 200, func() bool { return f.NumWorkers() == 3 }, "scale-out admission")
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged after recovery")
	}
}

func TestScaleOutReportSurvivesAMOutage(t *testing.T) {
	f := fleet(t, 2, 24, nil)
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	// Register the adjustment, then crash the AM before the new worker's
	// ready report necessarily lands. The report goroutine must retry
	// through the outage; the recovered AM resumes the pending adjustment
	// from the store and eventually admits the worker.
	if err := f.RequestScaleOut(1); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	if _, err := f.CrashAM(); err != nil {
		t.Fatalf("CrashAM: %v", err)
	}
	for i := 0; i < 3; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step during outage: %v", err)
		}
	}
	if n := f.NumWorkers(); n != 2 {
		t.Fatalf("worker admitted during AM outage: NumWorkers = %d", n)
	}
	if err := f.RecoverAM(); err != nil {
		t.Fatalf("RecoverAM: %v", err)
	}
	// The report retry fires every 50ms of wall time; give it room.
	deadline := time.Now().Add(10 * time.Second)
	for f.NumWorkers() != 3 && time.Now().Before(deadline) {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step after recovery: %v", err)
		}
	}
	if n := f.NumWorkers(); n != 3 {
		t.Fatalf("NumWorkers = %d after recovery, want 3", n)
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged")
	}
}
