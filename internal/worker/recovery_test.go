package worker

// Crash-recovery tests: worker crash + sweep + rejoin, AM crash with
// CAS-fenced recovery from the store, and a scale-out whose ready report
// must survive an AM outage.

import (
	"errors"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/coord"
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
	// The rejoined worker is no longer listed dead.
	for _, w := range f.DeadWorkers() {
		if w == "agent-2" {
			t.Fatal("rejoined worker still listed dead")
		}
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
	if err := old.RequestAdjustment(coord.ScaleOut, []string{"zombie"}, nil); !errors.Is(err, coord.ErrFenced) {
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
