package elan

import (
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
)

func TestPublicAPIClusterAndJob(t *testing.T) {
	c, err := NewCluster(DefaultGeometry())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	if c.NumGPUs() != 64 {
		t.Fatalf("NumGPUs = %d", c.NumGPUs())
	}
	m, err := ModelByName("ResNet-50")
	if err != nil {
		t.Fatalf("ModelByName: %v", err)
	}
	gpus, err := c.Reserve(16)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	ids := make([]GPUID, len(gpus))
	for i, g := range gpus {
		ids[i] = g.ID
	}
	job, err := NewJob(JobConfig{
		Model: m, Cluster: c, Workers: ids, TotalBatch: 512, LR: 0.1, Seed: 1,
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	more, err := c.Reserve(16)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	moreIDs := make([]GPUID, len(more))
	for i, g := range more {
		moreIDs[i] = g.ID
	}
	rep, err := job.ScaleOut(moreIDs)
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if rep.Pause <= 0 || job.NumWorkers() != 32 {
		t.Fatalf("scale-out rep=%+v workers=%d", rep, job.NumWorkers())
	}
}

func TestPublicAPIModels(t *testing.T) {
	zoo := Models()
	if len(zoo) != 5 {
		t.Fatalf("Models() = %d entries", len(zoo))
	}
	if _, err := ModelByName("nope"); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestPublicAPILiveTraining(t *testing.T) {
	ds, err := GenDataset(3, 512, 2, 3)
	if err != nil {
		t.Fatalf("GenDataset: %v", err)
	}
	f, err := NewFleet(FleetConfig{
		Dataset:    ds,
		LayerSizes: []int{2, 16, 3},
		Workers:    2,
		TotalBatch: 32,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       1,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()
	for i := 0; i < 5; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	// The joiners report asynchronously; a later Step admits them.
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	for i := 0; f.NumWorkers() != 4; i++ {
		if i == 1000 {
			t.Fatalf("scale-out not admitted within %d steps", i)
		}
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas inconsistent")
	}
}

func TestPublicAPIHybridScaling(t *testing.T) {
	h, err := NewHybridMechanism()
	if err != nil {
		t.Fatalf("NewHybridMechanism: %v", err)
	}
	m, _ := ModelByName("ResNet-50")
	dec, err := h.Decide(m, 16, 512, 32, 0.1)
	if err != nil {
		t.Fatalf("Decide: %v", err)
	}
	if dec.TotalBatch < 512 {
		t.Fatalf("decision = %+v", dec)
	}
	sched, err := NewLRSchedule(0.1, 0.2, 0, 100)
	if err != nil {
		t.Fatalf("NewLRSchedule: %v", err)
	}
	if sched.At(50) <= 0.1 || sched.At(50) >= 0.2 {
		t.Fatalf("mid-ramp LR = %v", sched.At(50))
	}
}

func TestPublicAPIScheduling(t *testing.T) {
	cfg := DefaultTraceConfig()
	cfg.Span = 2 * time.Hour
	cfg.JobsPerDay = 120
	cfg.MeanServiceMinutes = 15
	jobs, err := GenerateTrace(cfg)
	if err != nil {
		t.Fatalf("GenerateTrace: %v", err)
	}
	res, err := RunSchedule(ElasticBackfill, IdealScheduleSystem(), 128, jobs)
	if err != nil {
		t.Fatalf("RunSchedule: %v", err)
	}
	if len(res.Jobs) != len(jobs) || res.Makespan <= 0 {
		t.Fatalf("result = %d jobs, makespan %v", len(res.Jobs), res.Makespan)
	}
	hours, utils, err := TraceUtilization(jobs, 128, 5*time.Minute)
	if err != nil || len(hours) != len(utils) {
		t.Fatalf("TraceUtilization: %v", err)
	}
}

func TestPublicAPIBaselines(t *testing.T) {
	sr := NewSRBaseline(1)
	m, _ := ModelByName("VGG-19")
	rep, err := sr.Adjust(ScaleOut, m, 8, 16)
	if err != nil || rep.Pause <= 0 {
		t.Fatalf("SR Adjust = %+v, %v", rep, err)
	}
	litz, err := NewLitzBaseline(2)
	if err != nil {
		t.Fatalf("NewLitzBaseline: %v", err)
	}
	rel, err := litz.RelativeThroughput(m, 8, 24)
	if err != nil || rel <= 0 || rel > 1 {
		t.Fatalf("Litz RelativeThroughput = %v, %v", rel, err)
	}
	if _, err := NewLitzBaseline(0); err == nil {
		t.Fatal("zero executors accepted")
	}
}

func TestPublicAPIFleet(t *testing.T) {
	ds, err := GenDataset(5, 512, 4, 3)
	if err != nil {
		t.Fatalf("GenDataset: %v", err)
	}
	f, err := NewFleet(FleetConfig{
		Dataset:    ds,
		LayerSizes: []int{4, 12, 3},
		Workers:    2,
		TotalBatch: 16,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       5,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()
	for i := 0; i < 10; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("fleet replicas inconsistent")
	}
}

func TestPublicAPIEngines(t *testing.T) {
	st, err := NewStaticEngine(1, []int{4, 8, 3}, 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewStaticEngine: %v", err)
	}
	dy, err := NewDynamicEngine(1, [][]int{{4, 8, 3}}, 0.1, 0.9)
	if err != nil {
		t.Fatalf("NewDynamicEngine: %v", err)
	}
	var engines []Engine = []Engine{st, dy}
	ds, err := GenDataset(2, 128, 4, 3)
	if err != nil {
		t.Fatalf("GenDataset: %v", err)
	}
	x, y, err := ds.Batch(0, 64)
	if err != nil {
		t.Fatalf("Batch: %v", err)
	}
	for _, e := range engines {
		if _, err := e.Step(x, y, 0.05); err != nil {
			t.Fatalf("%s Step: %v", e.Kind(), err)
		}
	}
}

func TestPublicAPIGeometryConfig(t *testing.T) {
	data, err := EncodeGeometry(DefaultGeometry())
	if err != nil {
		t.Fatalf("EncodeGeometry: %v", err)
	}
	g, err := ParseGeometry(data)
	if err != nil {
		t.Fatalf("ParseGeometry: %v", err)
	}
	c, err := NewCluster(g)
	if err != nil || c.NumGPUs() != 64 {
		t.Fatalf("round-trip cluster = %v, %v", c.NumGPUs(), err)
	}
}

func TestPublicAPISnapshot(t *testing.T) {
	ds, err := GenDataset(9, 256, 4, 3)
	if err != nil {
		t.Fatalf("GenDataset: %v", err)
	}
	f, err := NewFleet(FleetConfig{
		Dataset: ds, LayerSizes: []int{4, 8, 3},
		Workers: 2, TotalBatch: 16, LR: 0.05, Momentum: 0.9, Seed: 9,
		Checkpoints: checkpoint.NewDeltaStore(checkpoint.DeltaConfig{}),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()
	for i := 0; i < 5; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}
	if _, err := f.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if _, err := f.RestoreCheckpoint(); err != nil || f.Iteration() != 5 {
		t.Fatalf("RestoreCheckpoint = %v, iteration %d, want 5", err, f.Iteration())
	}
}
