package core

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/topology"
)

func testCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	c, err := topology.NewCluster(topology.DefaultGeometry())
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

func testJob(t *testing.T, nWorkers, tbs int) (*Job, *topology.Cluster) {
	t.Helper()
	c := testCluster(t)
	gpus, err := c.Reserve(nWorkers)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	j, err := NewJob(JobConfig{
		Model:         models.ResNet50(),
		Cluster:       c,
		Workers:       topology.IDsOf(gpus),
		TotalBatch:    tbs,
		LR:            0.1,
		CoordInterval: 1,
		Seed:          1,
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	return j, c
}

func TestNewJobValidation(t *testing.T) {
	c := testCluster(t)
	gpus, _ := c.Reserve(4)
	ids := topology.IDsOf(gpus)
	base := JobConfig{Model: models.ResNet50(), Cluster: c, Workers: ids, TotalBatch: 128, LR: 0.1}

	bad := base
	bad.Cluster = nil
	if _, err := NewJob(bad); err == nil {
		t.Fatal("nil cluster accepted")
	}
	bad = base
	bad.Workers = nil
	if _, err := NewJob(bad); err == nil {
		t.Fatal("no workers accepted")
	}
	bad = base
	bad.TotalBatch = 100 // not divisible by 4? 100/4=25, divisible. Use 101.
	bad.TotalBatch = 101
	if _, err := NewJob(bad); err == nil {
		t.Fatal("non-divisible batch accepted")
	}
	bad = base
	bad.LR = 0
	if _, err := NewJob(bad); err == nil {
		t.Fatal("zero LR accepted")
	}
	if _, err := NewJob(base); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestRuntimeOverheadUnderThreePerMille(t *testing.T) {
	// Figure 14: runtime overhead < 3 per-mille for all models, 2-64
	// workers, coordinating every iteration.
	c := testCluster(t)
	for _, m := range models.Zoo() {
		for _, n := range []int{2, 4, 8, 16, 32, 64} {
			gpus, err := c.Reserve(n)
			if err != nil {
				t.Fatalf("Reserve: %v", err)
			}
			perWorker := m.MaxPerWorkerBatch / 2
			j, err := NewJob(JobConfig{
				Model:   m,
				Cluster: c,
				Workers: topology.IDsOf(gpus), TotalBatch: n * perWorker,
				LR: 0.1, CoordInterval: 1, Seed: 2,
			})
			if err != nil {
				t.Fatalf("NewJob: %v", err)
			}
			ov, err := j.RuntimeOverhead()
			if err != nil {
				t.Fatalf("RuntimeOverhead: %v", err)
			}
			if ov >= 0.003 {
				t.Errorf("%s N=%d: overhead %.5f >= 3 per-mille", m.Name, n, ov)
			}
			if ov <= 0 {
				t.Errorf("%s N=%d: overhead %.5f not positive", m.Name, n, ov)
			}
			c.Release(gpus)
		}
	}
}

func TestScaleOutElan(t *testing.T) {
	j, c := testJob(t, 16, 512)
	add, err := c.Reserve(16)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	rep, err := j.ScaleOut(topology.IDsOf(add))
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if j.NumWorkers() != 32 {
		t.Fatalf("workers = %d", j.NumWorkers())
	}
	if rep.Kind != coord.ScaleOut {
		t.Fatalf("kind = %v", rep.Kind)
	}
	// Elan's pause is ~1s scale: well under 5s, over 100ms (group
	// reconstruction alone is ~0.5s).
	if rep.Pause > 5*time.Second || rep.Pause < 100*time.Millisecond {
		t.Fatalf("pause = %v, want sub-5s", rep.Pause)
	}
	// Start+init was hidden, not part of the pause.
	if rep.HiddenStartInit < 10*time.Second {
		t.Fatalf("hidden start/init = %v, want tens of seconds", rep.HiddenStartInit)
	}
	// Strong scaling at this operating point: TBS unchanged.
	if j.TotalBatch != 512 {
		t.Fatalf("TBS = %d after 16->32 scale-out", j.TotalBatch)
	}
	// Breakdown covers the documented phases.
	names := map[string]bool{}
	for _, p := range rep.Breakdown {
		names[p.Name] = true
	}
	for _, want := range []string{"coordinate", "replicate", "repartition", "group-reconstruct"} {
		if !names[want] {
			t.Errorf("breakdown missing %q", want)
		}
	}
}

func TestScaleOutValidation(t *testing.T) {
	j, _ := testJob(t, 4, 128)
	if _, err := j.ScaleOut(nil); err == nil {
		t.Fatal("empty scale-out accepted")
	}
}

func TestScaleInElan(t *testing.T) {
	j, _ := testJob(t, 32, 1024)
	remove := j.Workers[16:]
	rep, err := j.ScaleIn(append([]topology.GPUID(nil), remove...))
	if err != nil {
		t.Fatalf("ScaleIn: %v", err)
	}
	if j.NumWorkers() != 16 {
		t.Fatalf("workers = %d", j.NumWorkers())
	}
	// Scale-in moves no state: no "replicate" phase, pause sub-second scale.
	for _, p := range rep.Breakdown {
		if p.Name == "replicate" {
			t.Fatal("scale-in performed replication")
		}
	}
	if rep.Pause > 2*time.Second {
		t.Fatalf("scale-in pause = %v", rep.Pause)
	}
	if j.TotalBatch != 1024 {
		t.Fatalf("TBS changed on scale-in: %d", j.TotalBatch)
	}
}

func TestScaleInValidation(t *testing.T) {
	j, _ := testJob(t, 4, 128)
	if _, err := j.ScaleIn(nil); err == nil {
		t.Fatal("empty scale-in accepted")
	}
	if _, err := j.ScaleIn(j.Workers); err == nil {
		t.Fatal("removing all workers accepted")
	}
	stranger := []topology.GPUID{{Node: 7, Socket: 1, Switch: 1, Index: 1}}
	if _, err := j.ScaleIn(stranger); err == nil {
		t.Fatal("removing a non-member accepted")
	}
}

func TestMigrateElan(t *testing.T) {
	j, c := testJob(t, 8, 256)
	dest, err := c.Reserve(8)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	destIDs := topology.IDsOf(dest)
	rep, err := j.Migrate(destIDs)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if j.NumWorkers() != 8 {
		t.Fatalf("workers = %d", j.NumWorkers())
	}
	for i, w := range j.Workers {
		if w != destIDs[i] {
			t.Fatalf("worker %d = %v, want %v", i, w, destIDs[i])
		}
	}
	if rep.Pause > 5*time.Second {
		t.Fatalf("migration pause = %v", rep.Pause)
	}
	if _, err := j.Migrate(nil); err == nil {
		t.Fatal("empty migration accepted")
	}
}

func TestHybridWeakScalingOnBigScaleOut(t *testing.T) {
	// Scaling 16 -> 512 workers at TBS 512 exceeds the strong-scaling
	// optimum; the hybrid mechanism must grow the batch and the LR.
	c := testCluster(t)
	geo := topology.DefaultGeometry()
	geo.Nodes = 128 // big virtual cluster
	big, err := topology.NewCluster(geo)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	_ = c
	gpus, err := big.Reserve(16)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	j, err := NewJob(JobConfig{
		Model:   models.ResNet50(),
		Cluster: big,
		Workers: topology.IDsOf(gpus), TotalBatch: 512, LR: 0.1, Seed: 3,
	})
	if err != nil {
		t.Fatalf("NewJob: %v", err)
	}
	add, err := big.Reserve(496)
	if err != nil {
		t.Fatalf("Reserve add: %v", err)
	}
	rep, err := j.ScaleOut(topology.IDsOf(add))
	if err != nil {
		t.Fatalf("ScaleOut: %v", err)
	}
	if rep.Decision.Strong {
		t.Fatal("expected weak scaling for 16->512")
	}
	if j.TotalBatch <= 512 {
		t.Fatalf("TBS = %d, want > 512", j.TotalBatch)
	}
	wantLR := 0.1 * float64(j.TotalBatch) / 512
	if diff := j.LR - wantLR; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("LR = %v, want %v (linear scaling rule)", j.LR, wantLR)
	}
}

func TestThroughputPositive(t *testing.T) {
	j, _ := testJob(t, 16, 512)
	tp, err := j.Throughput()
	if err != nil {
		t.Fatalf("Throughput: %v", err)
	}
	if tp <= 0 {
		t.Fatalf("throughput = %v", tp)
	}
	it, err := j.IterTime()
	if err != nil || it <= 0 {
		t.Fatalf("IterTime = %v, %v", it, err)
	}
}

func TestReplaceStraggler(t *testing.T) {
	j, c := testJob(t, 8, 256)
	spare, err := c.Reserve(1)
	if err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	victim := j.Workers[3]
	rep, err := j.Replace(victim, spare[0].ID)
	if err != nil {
		t.Fatalf("Replace: %v", err)
	}
	if j.NumWorkers() != 8 {
		t.Fatalf("workers = %d", j.NumWorkers())
	}
	if j.Workers[3] != spare[0].ID {
		t.Fatalf("worker 3 = %v, want replacement", j.Workers[3])
	}
	// Replacement is a one-worker migration: sub-second pause, hidden
	// start/init, unchanged hyperparameters.
	if rep.Pause > 2*time.Second || rep.HiddenStartInit == 0 {
		t.Fatalf("report = %+v", rep)
	}
	if j.TotalBatch != 256 {
		t.Fatalf("TBS changed: %d", j.TotalBatch)
	}
	// Replacing a non-member fails.
	if _, err := j.Replace(victim, spare[0].ID); err == nil {
		t.Fatal("replacing a departed worker accepted")
	}
}

func TestAdjustmentsShareOneModel(t *testing.T) {
	// Every adjustment method is a thin wrapper over SystemCosts.Adjust: its
	// report is the model's for the same GPU sets and seed, the pause is the
	// sum of the breakdown, and the phases are the documented ones.
	moving := []string{"coordinate", "replicate", "repartition", "group-reconstruct"}
	cases := []struct {
		name   string
		kind   coord.Kind
		phases []string
		run    func(j *Job, c *topology.Cluster) (AdjustmentReport, error)
	}{
		{"ScaleOut", coord.ScaleOut, moving, func(j *Job, c *topology.Cluster) (AdjustmentReport, error) {
			add, err := c.Reserve(4)
			if err != nil {
				return AdjustmentReport{}, err
			}
			return j.ScaleOut(topology.IDsOf(add))
		}},
		{"ScaleIn", coord.ScaleIn, []string{"coordinate", "repartition", "group-reconstruct"},
			func(j *Job, _ *topology.Cluster) (AdjustmentReport, error) {
				return j.ScaleIn(slices.Clone(j.Workers[4:]))
			}},
		{"Migrate", coord.Migrate, moving, func(j *Job, c *topology.Cluster) (AdjustmentReport, error) {
			dest, err := c.Reserve(8)
			if err != nil {
				return AdjustmentReport{}, err
			}
			return j.Migrate(topology.IDsOf(dest))
		}},
		{"Replace", coord.Migrate, moving, func(j *Job, c *topology.Cluster) (AdjustmentReport, error) {
			spare, err := c.Reserve(1)
			if err != nil {
				return AdjustmentReport{}, err
			}
			return j.Replace(j.Workers[3], spare[0].ID)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			j, c := testJob(t, 8, 256)
			from := slices.Clone(j.Workers)
			rep, err := tc.run(j, c)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			want, err := j.Costs.Adjust(rand.New(rand.NewSource(1)), c, j.Model, tc.kind, from, j.Workers)
			if err != nil {
				t.Fatalf("Adjust: %v", err)
			}
			want.Decision = rep.Decision
			if !reflect.DeepEqual(rep, want) {
				t.Fatalf("report %+v, model %+v", rep, want)
			}
			var sum time.Duration
			var names []string
			for _, p := range rep.Breakdown {
				sum += p.Duration
				names = append(names, p.Name)
			}
			if rep.Pause != sum {
				t.Fatalf("pause %v != breakdown sum %v", rep.Pause, sum)
			}
			if !slices.Equal(names, tc.phases) {
				t.Fatalf("phases %v, want %v", names, tc.phases)
			}
		})
	}
}

func TestAdjustInTreeOrderPlacement(t *testing.T) {
	costs := DefaultSystemCosts()
	costs.JitterRel = 0
	m := models.ResNet50()
	// A scale-in moves no state; a scale-out and a migration do, and with
	// no jitter both their replications are priced on plans of their own.
	in, err := costs.AdjustInTreeOrder(rand.New(rand.NewSource(1)), coord.ScaleIn, m, 16, 8)
	if err != nil {
		t.Fatalf("scale-in: %v", err)
	}
	if len(in.Breakdown) != 3 || in.HiddenStartInit != 0 {
		t.Fatalf("scale-in report %+v", in)
	}
	for _, kind := range []coord.Kind{coord.ScaleOut, coord.Migrate} {
		rep, err := costs.AdjustInTreeOrder(rand.New(rand.NewSource(1)), kind, m, 8, 16)
		if err != nil {
			t.Fatalf("%v: %v", kind, err)
		}
		if rep.Breakdown[1].Name != "replicate" || rep.HiddenStartInit != costs.WorkerStart+costs.WorkerInit {
			t.Fatalf("%v report %+v", kind, rep)
		}
	}
	for _, bad := range []struct {
		kind     coord.Kind
		old, new int
	}{{coord.ScaleOut, 0, 8}, {coord.ScaleIn, 8, 0}, {coord.Kind(42), 8, 8}} {
		if _, err := costs.AdjustInTreeOrder(rand.New(rand.NewSource(1)), bad.kind, m, bad.old, bad.new); err == nil {
			t.Fatalf("AdjustInTreeOrder(%v, %d, %d) accepted", bad.kind, bad.old, bad.new)
		}
	}
}
