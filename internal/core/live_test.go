package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/data"
)

func liveDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	d, err := data.GenGaussianMixture(17, n, 2, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	return d
}

func liveJob(t *testing.T, workers, tbs int) *LiveJob {
	t.Helper()
	lj, err := NewLiveJob(LiveConfig{
		Dataset:    liveDataset(t, 2048),
		LayerSizes: []int{2, 24, 3},
		Workers:    workers,
		TotalBatch: tbs,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       7,
	})
	if err != nil {
		t.Fatalf("NewLiveJob: %v", err)
	}
	t.Cleanup(lj.Close)
	return lj
}

func TestNewLiveJobValidation(t *testing.T) {
	d := liveDataset(t, 100)
	cases := []LiveConfig{
		{Dataset: nil, LayerSizes: []int{2, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 0, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 3, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{5, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 4}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 2, TotalBatch: 8, LR: 0},
	}
	for i, cfg := range cases {
		if _, err := NewLiveJob(cfg); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLiveAdjustmentCancelled(t *testing.T) {
	// A cancelled context must unwind an adjustment before it commits: the
	// worker set, iteration count and replica invariant are untouched.
	lj := liveJob(t, 2, 32)
	for i := 0; i < 5; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := lj.ScaleOutCtx(ctx, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScaleOutCtx = %v, want context.Canceled", err)
	}
	if err := lj.ScaleInCtx(ctx, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("ScaleInCtx = %v, want context.Canceled", err)
	}
	if lj.NumWorkers() != 2 {
		t.Fatalf("workers = %d after cancelled adjustments, want 2", lj.NumWorkers())
	}
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after cancelled adjustment")
	}
	// Training continues as if nothing happened.
	if _, err := lj.Step(); err != nil {
		t.Fatalf("Step after cancelled adjustment: %v", err)
	}
}

func TestLiveAdjustDurationOnSimClock(t *testing.T) {
	// With an injected sim clock the adjustment duration is measured in
	// virtual time; nothing advances the clock here, so it must be zero —
	// proving the measurement uses the injected clock, not the wall.
	sim := clock.NewSim(time.Unix(0, 0))
	lj, err := NewLiveJob(LiveConfig{
		Dataset:    liveDataset(t, 512),
		LayerSizes: []int{2, 8, 3},
		Workers:    2,
		TotalBatch: 32,
		LR:         0.05,
		Seed:       7,
		Clock:      sim,
	})
	if err != nil {
		t.Fatalf("NewLiveJob: %v", err)
	}
	t.Cleanup(lj.Close)
	if err := lj.ScaleOut(2); err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if got := lj.LastAdjustDuration(); got != 0 {
		t.Fatalf("LastAdjustDuration = %v on a frozen sim clock, want 0", got)
	}
	if lj.NumWorkers() != 4 {
		t.Fatalf("workers = %d, want 4", lj.NumWorkers())
	}
}

func TestLiveTrainingConverges(t *testing.T) {
	lj := liveJob(t, 4, 64)
	var first, last float64
	for i := 0; i < 150; i++ {
		loss, err := lj.Step()
		if err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
		if i == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first*0.7 {
		t.Fatalf("loss barely moved: %v -> %v", first, last)
	}
	_, acc, err := lj.Evaluate(liveDataset(t, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0.6 {
		t.Fatalf("accuracy = %v, want >= 0.6", acc)
	}
	if lj.Iteration() != 150 {
		t.Fatalf("Iteration = %d", lj.Iteration())
	}
}

func TestLiveReplicasStayConsistent(t *testing.T) {
	lj := liveJob(t, 4, 32)
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas differ at init")
	}
	for i := 0; i < 20; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas diverged during training")
	}
}

func TestLiveScaleOutPreservesState(t *testing.T) {
	lj := liveJob(t, 2, 32)
	for i := 0; i < 10; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if err := lj.ScaleOut(2); err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if lj.NumWorkers() != 4 {
		t.Fatalf("workers = %d", lj.NumWorkers())
	}
	// The data-parallel invariant must hold right after replication: the
	// new workers carry the trained state, not fresh init.
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after scale-out")
	}
	// And training continues.
	for i := 0; i < 10; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step after scale-out: %v", err)
		}
	}
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas diverged after post-scale-out training")
	}
	if lj.Iteration() != 20 {
		t.Fatalf("Iteration = %d, want 20 (state carried over)", lj.Iteration())
	}
}

func TestLiveScaleOutValidation(t *testing.T) {
	lj := liveJob(t, 2, 32)
	if err := lj.ScaleOut(0); err == nil {
		t.Fatal("zero scale-out accepted")
	}
	if err := lj.ScaleOut(3); err == nil {
		t.Fatal("indivisible worker count accepted") // 32 % 5 != 0
	}
}

func TestLiveScaleIn(t *testing.T) {
	lj := liveJob(t, 4, 32)
	for i := 0; i < 5; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if err := lj.ScaleIn(2); err != nil {
		t.Fatalf("ScaleIn: %v", err)
	}
	if lj.NumWorkers() != 2 {
		t.Fatalf("workers = %d", lj.NumWorkers())
	}
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas inconsistent after scale-in")
	}
	for i := 0; i < 5; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step after scale-in: %v", err)
		}
	}
	if err := lj.ScaleIn(5); err == nil {
		t.Fatal("removing more workers than exist accepted")
	}
	if err := lj.ScaleIn(0); err == nil {
		t.Fatal("zero scale-in accepted")
	}
}

func TestLiveElasticityMatchesStaticTraining(t *testing.T) {
	// The headline correctness property: a job that scales 2 -> 4 -> 2
	// workers mid-training computes numerically similar results to a static
	// job, because gradients are averaged over the same total batch drawn
	// from the same serial cursor. (Floating-point summation order differs
	// across group sizes, so we compare loss trajectories loosely.)
	static := liveJob(t, 2, 32)
	elastic := liveJob(t, 2, 32)
	var staticLoss, elasticLoss float64
	for i := 0; i < 30; i++ {
		l, err := static.Step()
		if err != nil {
			t.Fatalf("static Step: %v", err)
		}
		staticLoss = l
	}
	for i := 0; i < 10; i++ {
		if _, err := elastic.Step(); err != nil {
			t.Fatalf("elastic Step: %v", err)
		}
	}
	if err := elastic.ScaleOut(2); err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	for i := 0; i < 10; i++ {
		if _, err := elastic.Step(); err != nil {
			t.Fatalf("elastic Step: %v", err)
		}
	}
	if err := elastic.ScaleIn(2); err != nil {
		t.Fatalf("ScaleIn: %v", err)
	}
	for i := 0; i < 10; i++ {
		l, err := elastic.Step()
		if err != nil {
			t.Fatalf("elastic Step: %v", err)
		}
		elasticLoss = l
	}
	// Both trained 30 iterations at TBS 32 over the same data order.
	if elastic.Iteration() != static.Iteration() {
		t.Fatalf("iterations: %d vs %d", elastic.Iteration(), static.Iteration())
	}
	ratio := elasticLoss / staticLoss
	if ratio > 1.5 || ratio < 0.6 {
		t.Fatalf("elastic loss %v too far from static loss %v", elasticLoss, staticLoss)
	}
}

func TestLiveSetTotalBatchProgressive(t *testing.T) {
	lj := liveJob(t, 2, 16)
	for i := 0; i < 5; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	lr0 := lj.LR()
	if err := lj.SetTotalBatch(32, 10, true); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	if lj.TotalBatch() != 32 {
		t.Fatalf("TBS = %d", lj.TotalBatch())
	}
	// Immediately after the change the LR has not jumped yet.
	if got := lj.LR(); got > lr0*1.15 {
		t.Fatalf("LR jumped immediately: %v -> %v", lr0, got)
	}
	for i := 0; i < 12; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	// After the ramp the LR is doubled (k=2).
	want := lr0 * 2
	if got := lj.LR(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("LR after ramp = %v, want %v", got, want)
	}
	if err := lj.SetTotalBatch(33, 10, true); err == nil {
		t.Fatal("indivisible TBS accepted")
	}
}

func TestLiveSetTotalBatchImmediate(t *testing.T) {
	lj := liveJob(t, 2, 16)
	lr0 := lj.LR()
	if err := lj.SetTotalBatch(64, 100, false); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	// Immediate mode: LR jumps to 4x at once.
	want := lr0 * 4
	if got := lj.LR(); got < want*0.99 || got > want*1.01 {
		t.Fatalf("immediate LR = %v, want %v", got, want)
	}
}

// TestRestoreSnapshotRefusesWithoutWriting: a snapshot whose parameter or
// optimizer vector has the wrong length — short or long — is refused before
// any worker is written: the job's state afterwards is bit for bit the state
// before, on every worker.
func TestRestoreSnapshotRefusesWithoutWriting(t *testing.T) {
	lj := liveJob(t, 2, 16)
	for i := 0; i < 3; i++ {
		if _, err := lj.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	snap, err := lj.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	other := make([]float64, len(snap.Params)+1) // all zero: a visible overwrite
	for name, bad := range map[string]Snapshot{
		"short params":   {Params: other[:3], OptState: snap.OptState},
		"long params":    {Params: other, OptState: snap.OptState},
		"short optstate": {Params: other[:len(snap.Params)], OptState: other[:3]},
		"long optstate":  {Params: other[:len(snap.Params)], OptState: other},
	} {
		bad.TBS, bad.LR0, bad.LRT = snap.TBS, snap.LR0, snap.LRT
		if err := lj.RestoreSnapshot(&bad); err == nil {
			t.Fatalf("%s accepted", name)
		}
		after, err := lj.Snapshot()
		if err != nil {
			t.Fatalf("Snapshot: %v", err)
		}
		for i := range snap.Params {
			if math.Float64bits(after.Params[i]) != math.Float64bits(snap.Params[i]) ||
				math.Float64bits(after.OptState[i]) != math.Float64bits(snap.OptState[i]) {
				t.Fatalf("%s refused, but worker 0's state changed at %d", name, i)
			}
		}
		if !lj.ReplicasConsistent() {
			t.Fatalf("%s refused, but the replicas differ", name)
		}
	}
}
