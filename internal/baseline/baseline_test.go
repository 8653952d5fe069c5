package baseline

import (
	"slices"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
	"github.com/elan-sys/elan/internal/topology"
)

func newSR(t *testing.T) *SR {
	t.Helper()
	return NewSR(core.DefaultSystemCosts(), checkpoint.DefaultFSModel(), 1)
}

func TestSRScaleOutDominatedByStartInit(t *testing.T) {
	// Figure 11: start + initialization dominate the S&R adjustment.
	sr := newSR(t)
	rep, err := sr.Adjust(coord.ScaleOut, models.ResNet50(), 8, 16)
	if err != nil {
		t.Fatalf("Adjust: %v", err)
	}
	var startInit, total time.Duration
	for _, p := range rep.Breakdown {
		total += p.Duration
		if p.Name == "start" || p.Name == "initialize" {
			startInit += p.Duration
		}
	}
	if total != rep.Pause {
		t.Fatalf("breakdown sum %v != pause %v", total, rep.Pause)
	}
	if float64(startInit)/float64(total) < 0.5 {
		t.Fatalf("start+init only %.0f%% of S&R pause", 100*float64(startInit)/float64(total))
	}
	// Scale-out pause is tens of seconds.
	if rep.Pause < 20*time.Second || rep.Pause > 2*time.Minute {
		t.Fatalf("S&R scale-out pause = %v", rep.Pause)
	}
}

func TestSRMigrationHidesStartInit(t *testing.T) {
	sr := newSR(t)
	mig, err := sr.Adjust(coord.Migrate, models.ResNet50(), 8, 8)
	if err != nil {
		t.Fatalf("Adjust: %v", err)
	}
	out, err := sr.Adjust(coord.ScaleOut, models.ResNet50(), 8, 16)
	if err != nil {
		t.Fatalf("Adjust: %v", err)
	}
	// Migration hides start/init; scale-out pays it.
	if mig.HiddenStartInit == 0 {
		t.Fatal("migration did not hide start/init")
	}
	if out.HiddenStartInit != 0 {
		t.Fatal("scale-out hid start/init")
	}
	if mig.Pause >= out.Pause/3 {
		t.Fatalf("migration pause %v not much smaller than scale-out %v", mig.Pause, out.Pause)
	}
	for _, p := range mig.Breakdown {
		if p.Name == "start" || p.Name == "initialize" || p.Name == "shutdown" {
			t.Fatalf("migration breakdown contains %q", p.Name)
		}
	}
}

func TestSRValidation(t *testing.T) {
	sr := newSR(t)
	if _, err := sr.Adjust(coord.ScaleOut, models.ResNet50(), 0, 8); err == nil {
		t.Fatal("zero old workers accepted")
	}
	if _, err := sr.Adjust(coord.Kind(42), models.ResNet50(), 8, 8); err == nil {
		t.Fatal("invalid kind accepted")
	}
}

func TestElanBeatsSRPaperRatios(t *testing.T) {
	// Figure 15's headline: Elan is up to ~4x faster on migration and
	// 10-80x faster on scaling, across models A-E.
	cluster, err := topology.NewCluster(topology.DefaultGeometry())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	sr := newSR(t)
	for _, m := range models.Zoo() {
		gpus, err := cluster.Reserve(8)
		if err != nil {
			t.Fatalf("Reserve: %v", err)
		}
		tbs := 8 * m.MaxPerWorkerBatch / 2
		job, err := core.NewJob(core.JobConfig{
			Model: m, Cluster: cluster, Workers: topology.IDsOf(gpus),
			TotalBatch: tbs, LR: 0.1, Seed: 5,
		})
		if err != nil {
			t.Fatalf("NewJob: %v", err)
		}
		add, err := cluster.Reserve(8)
		if err != nil {
			t.Fatalf("Reserve add: %v", err)
		}
		elanOut, err := job.ScaleOut(topology.IDsOf(add))
		if err != nil {
			t.Fatalf("%s ScaleOut: %v", m.Name, err)
		}
		srOut, err := sr.Adjust(coord.ScaleOut, m, 8, 16)
		if err != nil {
			t.Fatalf("SR Adjust: %v", err)
		}
		ratio := float64(srOut.Pause) / float64(elanOut.Pause)
		if ratio < 10 || ratio > 120 {
			t.Errorf("%s: scale-out speedup %.1fx outside the paper's 10-80x band", m.Name, ratio)
		}
		cluster.Release(cluster.AllGPUs())
	}
}

func TestLitzValidation(t *testing.T) {
	if _, err := NewLitz(LitzConfig{ExecutorsPerWorker: 0, PCIeBytesPerSec: 1}, nil); err == nil {
		t.Fatal("zero executors accepted")
	}
	if _, err := NewLitz(LitzConfig{ExecutorsPerWorker: 2}, nil); err == nil {
		t.Fatal("zero bandwidth accepted")
	}
	l, err := NewLitz(DefaultLitzConfig(2), perfmodel.Default())
	if err != nil {
		t.Fatalf("NewLitz: %v", err)
	}
	if _, err := l.RelativeThroughput(models.ResNet50(), 0, 32); err == nil {
		t.Fatal("zero workers accepted")
	}
}

func TestLitzThroughputHeavilyReduced(t *testing.T) {
	// Figure 16: Litz runs far below Elan; the Transformer reduction
	// exceeds 90%.
	for _, executors := range []int{2, 4} {
		l, err := NewLitz(DefaultLitzConfig(executors), perfmodel.Default())
		if err != nil {
			t.Fatalf("NewLitz: %v", err)
		}
		for _, m := range models.Zoo() {
			rel, err := l.RelativeThroughput(m, 8, m.MaxPerWorkerBatch/2)
			if err != nil {
				t.Fatalf("RelativeThroughput: %v", err)
			}
			if rel <= 0 || rel >= 0.6 {
				t.Errorf("Litz-%d %s: relative throughput %.3f not heavily reduced", executors, m.Name, rel)
			}
		}
		tr, err := l.RelativeThroughput(models.Transformer(), 8, 40)
		if err != nil {
			t.Fatalf("RelativeThroughput: %v", err)
		}
		if tr > 0.10 {
			t.Errorf("Litz-%d Transformer: relative throughput %.3f, want <= 0.10 (>90%% reduction)", executors, tr)
		}
	}
}

func TestLitz4WorseThanLitz2(t *testing.T) {
	l2, err := NewLitz(DefaultLitzConfig(2), perfmodel.Default())
	if err != nil {
		t.Fatalf("NewLitz: %v", err)
	}
	l4, err := NewLitz(DefaultLitzConfig(4), perfmodel.Default())
	if err != nil {
		t.Fatalf("NewLitz: %v", err)
	}
	for _, m := range models.Zoo() {
		r2, err := l2.RelativeThroughput(m, 16, m.MaxPerWorkerBatch/2)
		if err != nil {
			t.Fatalf("RelativeThroughput: %v", err)
		}
		r4, err := l4.RelativeThroughput(m, 16, m.MaxPerWorkerBatch/2)
		if err != nil {
			t.Fatalf("RelativeThroughput: %v", err)
		}
		if r4 >= r2 {
			t.Errorf("%s: Litz-4 (%.3f) not worse than Litz-2 (%.3f)", m.Name, r4, r2)
		}
	}
}

func TestLitzImprovesSlightlyWithWorkers(t *testing.T) {
	// Local gradient aggregation: relative throughput rises slightly with
	// the worker count.
	l, err := NewLitz(DefaultLitzConfig(2), perfmodel.Default())
	if err != nil {
		t.Fatalf("NewLitz: %v", err)
	}
	m := models.ResNet50()
	r8, err := l.RelativeThroughput(m, 8, 32)
	if err != nil {
		t.Fatalf("RelativeThroughput: %v", err)
	}
	r64, err := l.RelativeThroughput(m, 64, 32)
	if err != nil {
		t.Fatalf("RelativeThroughput: %v", err)
	}
	if r64 <= r8 {
		t.Fatalf("no aggregation bonus: N=8 %.3f, N=64 %.3f", r8, r64)
	}
	if r64 > 2*r8 {
		t.Fatalf("bonus too large: N=8 %.3f, N=64 %.3f", r8, r64)
	}
}

func TestSRBreakdownPhases(t *testing.T) {
	// With no jitter, Adjust's phases are the means of the S&R model (the
	// Figure 11 rows), and the pause is their sum.
	costs := core.DefaultSystemCosts()
	costs.JitterRel = 0
	fs := checkpoint.DefaultFSModel()
	m := models.VGG19()
	rep, err := NewSR(costs, fs, 1).Adjust(coord.ScaleOut, m, 8, 16)
	if err != nil {
		t.Fatalf("Adjust: %v", err)
	}
	gpu, cpu := m.GPUStateBytes(), m.CPUStateBytes
	want := []core.Phase{
		{Name: "coordinate", Duration: costs.CoordMean(8)},
		{Name: "checkpoint", Duration: fs.SaveTime(gpu, cpu)},
		{Name: "shutdown", Duration: costs.ShutdownTime},
		{Name: "start", Duration: costs.WorkerStart},
		{Name: "initialize", Duration: costs.WorkerInit},
		{Name: "load", Duration: fs.LoadTime(gpu, cpu, 16)},
	}
	if !slices.Equal(rep.Breakdown, want) {
		t.Fatalf("breakdown = %v, want %v", rep.Breakdown, want)
	}
	var sum time.Duration
	for _, p := range want {
		if p.Duration <= 0 {
			t.Fatalf("phase %q non-positive", p.Name)
		}
		sum += p.Duration
	}
	if rep.Pause != sum {
		t.Fatalf("pause %v != phase sum %v", rep.Pause, sum)
	}
}
