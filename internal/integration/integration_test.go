// Package integration contains cross-subsystem end-to-end tests on the
// worker fleet: the full adjustment protocol over a lossy message bus, the
// S&R restart path through a delta checkpoint shared by two fleets of
// different sizes, and migration of a live job, mid learning-rate ramp, to a
// fresh fleet.
package integration

import (
	"bytes"
	"encoding/gob"
	"math"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/chaos"
	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/scaling"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
	"github.com/elan-sys/elan/internal/worker"
)

func dataset(t *testing.T, seed int64, n int) *data.Dataset {
	t.Helper()
	d, err := data.GenGaussianMixture(seed, n, 4, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	return d
}

func fleet(t *testing.T, workers, tbs int, ckpt *checkpoint.DeltaStore) *worker.Fleet {
	t.Helper()
	f, err := worker.NewFleet(worker.FleetConfig{
		Dataset:     dataset(t, 11, 1024),
		LayerSizes:  []int{4, 16, 3},
		Workers:     workers,
		TotalBatch:  tbs,
		LR:          0.05,
		Momentum:    0.9,
		Seed:        11,
		Checkpoints: ckpt,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	return f
}

func steps(t *testing.T, f *worker.Fleet, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
}

// TestElasticStackOverLossyBus drives the full adjustment protocol over a
// bus with 25% message loss while real training runs: the scheduler
// requests a scale-out through the AM service, the new workers start and
// report, the lead coordinates between iterations, and when the adjustment
// fires the fleet replicates state and rebuilds the group. Exactly one
// adjustment must be applied, training must keep converging, and replicas
// stay consistent.
func TestElasticStackOverLossyBus(t *testing.T) {
	cfg := transport.DefaultBusConfig()
	cfg.AckTimeout = 5 * time.Millisecond
	cfg.MaxRetries = 100
	bus := transport.NewBus(cfg)
	t.Cleanup(bus.Close)
	inj := chaos.NewInjector(77)
	inj.SetLoss(0.25)
	bus.SetFaultHook(inj.Fate)
	reg := telemetry.NewRegistry()
	job, err := worker.NewFleet(worker.FleetConfig{
		Dataset:    dataset(t, 11, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    2,
		TotalBatch: 32,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       11,
		Bus:        bus,
		Metrics:    reg,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(job.Close)

	// 2 -> 4 workers keeps divisibility of TBS 32.
	if err := job.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	for iter := 0; iter < 200; iter++ {
		// Every Step coordinates at its iteration boundary; training never
		// blocks on the joiners.
		if _, err := job.Step(); err != nil {
			t.Fatalf("Step %d: %v", iter, err)
		}
		if job.NumWorkers() == 4 && iter > 120 {
			break
		}
	}
	if applied := reg.Counter("worker_adjustments_total").Value(); applied != 1 {
		t.Fatalf("adjustment applied %d times, want exactly 1", applied)
	}
	if job.NumWorkers() != 4 {
		t.Fatalf("workers = %d", job.NumWorkers())
	}
	if !job.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after bus-driven adjustment")
	}
	// Training converged meaningfully.
	_, acc, err := job.Evaluate(dataset(t, 12, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0.55 {
		t.Fatalf("accuracy %.3f too low after end-to-end run", acc)
	}
}

// TestSRCheckpointRestartPath exercises the baseline's full restart on real
// state: train on 2 workers, checkpoint into the delta store, "restart" as a
// fresh 4-worker fleet on the same store, restore, and verify the model and
// data position carried over exactly.
func TestSRCheckpointRestartPath(t *testing.T) {
	ckpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	job := fleet(t, 2, 32, ckpt)
	steps(t, job, 50)
	test := dataset(t, 12, 512)
	preLoss, preAcc, err := job.Evaluate(test)
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	st, err := job.SaveCheckpoint()
	if err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	// The simulated cost of this checkpoint on the FS model is positive
	// and scales with the state.
	if st.BytesWritten <= 0 || checkpoint.DefaultFSModel().SaveTime(st.BytesWritten, 0) <= 0 {
		t.Fatalf("save stats %+v: no simulated save time", st)
	}

	// "Restart" with 4 workers (the S&R scale-out path).
	restarted := fleet(t, 4, 32, ckpt)
	if _, err := restarted.RestoreCheckpoint(); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if restarted.Iteration() != 50 {
		t.Fatalf("restored iteration = %d", restarted.Iteration())
	}
	postLoss, postAcc, err := restarted.Evaluate(test)
	if err != nil {
		t.Fatalf("Evaluate restored: %v", err)
	}
	if math.Float64bits(postLoss) != math.Float64bits(preLoss) || math.Float64bits(postAcc) != math.Float64bits(preAcc) {
		t.Fatalf("restored model differs: loss %v vs %v, acc %v vs %v",
			postLoss, preLoss, postAcc, preAcc)
	}
	if !restarted.ReplicasConsistent() {
		t.Fatal("restored replicas inconsistent")
	}
	// And training continues from where it stopped.
	steps(t, restarted, 20)
	if restarted.Iteration() != 70 {
		t.Fatalf("iteration after resume = %d", restarted.Iteration())
	}
}

// TestMigrationPreservesTraining migrates a job, 3 steps into a 10-step
// learning-rate ramp, to a fresh fleet through the delta store. The ramp
// travels with the checkpoint: the migrated fleet and the one left running
// step in lockstep, with bit-equal learning rates and losses through the
// rest of the ramp and beyond it.
func TestMigrationPreservesTraining(t *testing.T) {
	ckpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	src := fleet(t, 4, 32, ckpt)
	steps(t, src, 20)
	if err := src.SetTotalBatch(64, 10, true); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	steps(t, src, 3)
	if _, err := src.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	dst := fleet(t, 4, 32, ckpt)
	if _, err := dst.RestoreCheckpoint(); err != nil {
		t.Fatalf("RestoreCheckpoint: %v", err)
	}
	if dst.TotalBatch() != 64 {
		t.Fatalf("migrated total batch %d, want 64", dst.TotalBatch())
	}
	for i := 0; i < 17; i++ {
		if a, b := src.LR(), dst.LR(); math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: learning rates %v vs %v", i, a, b)
		}
		a, err := src.Step()
		if err != nil {
			t.Fatalf("src Step: %v", err)
		}
		b, err := dst.Step()
		if err != nil {
			t.Fatalf("dst Step: %v", err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("step %d: losses diverged %v vs %v", i, a, b)
		}
	}
	// The ramp ended on both: the rate is the doubled one.
	if got := dst.LR(); got != 0.1 {
		t.Fatalf("LR after the ramp = %v, want 0.1", got)
	}
}

// TestSnapshotValidation covers the restore error paths: no checkpoint at
// all, and committed checkpoints this fleet cannot take. A batch size its
// workers cannot shard is no error: the restore keeps the fleet's batch.
func TestSnapshotValidation(t *testing.T) {
	ckpt := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	job := fleet(t, 2, 32, ckpt)
	if _, err := job.RestoreCheckpoint(); err == nil {
		t.Fatal("restore without a checkpoint accepted")
	}
	steps(t, job, 3)
	if _, err := job.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	raw, state, _, err := ckpt.Restore("fleet")
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	// The fleet's checkpoint header, field for field.
	type header struct {
		Iter, TBS int
		LR        scaling.LRSchedule
		Cursor    int
	}
	var snap header
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&snap); err != nil {
		t.Fatalf("decode header: %v", err)
	}
	restore := func(h header, st []float64) error {
		t.Helper()
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(h); err != nil {
			t.Fatalf("encode header: %v", err)
		}
		if _, err := ckpt.Save("fleet", buf.Bytes(), st); err != nil {
			t.Fatalf("Save: %v", err)
		}
		_, err := job.RestoreCheckpoint()
		return err
	}
	if err := restore(snap, state[:3]); err == nil {
		t.Fatal("short params accepted")
	}
	bad := snap
	bad.LR.LR0 = -1
	if err := restore(bad, state); err == nil {
		t.Fatal("negative LR accepted")
	}
	bad = snap
	bad.Cursor = -5
	if err := restore(bad, state); err == nil {
		t.Fatal("negative cursor accepted")
	}
	bad = snap
	bad.TBS = 7 // not divisible by 2 workers
	if err := restore(bad, state); err != nil || job.TotalBatch() != 32 {
		t.Fatalf("indivisible TBS: restore = %v, batch %d, want no error and 32", err, job.TotalBatch())
	}
}
