package chaos

import (
	"math"
	"testing"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/topology"
)

// twoNodeCluster builds a 2-node × 2-GPU simulated cluster, so a 4-worker
// fleet always spans both nodes and every group reconstruction — including
// the 3-worker group after a crash sweep (placed 2+1) — crosses L4.
func twoNodeCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	geom := topology.DefaultGeometry()
	geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 1, 1, 2
	c, err := topology.NewCluster(geom)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestHierarchicalGroupReconstruction replays a crash/rejoin schedule on a
// cluster-placed, bucketed fleet: every crash sweep and rejoin rebuilds the
// group on a two-node placement (re-reserving GPUs each time), training
// never step-fails, replicas stay bitwise consistent, every allreduce span
// carries the L4 label and its bucket, and the GPU accounting balances.
func TestHierarchicalGroupReconstruction(t *testing.T) {
	guardGoroutines(t)
	cl := twoNodeCluster(t)
	rec := telemetry.NewRecorder(clock.Wall{}, 1<<14)
	sched := Schedule{
		Seed: 11,
		Faults: []Fault{
			{Iter: 2, Kind: WorkerCrash, Target: "agent-1"},
			{Iter: 6, Kind: WorkerRestart, Target: "agent-1"},
			{Iter: 9, Kind: WorkerCrash, Target: "agent-3"},
			{Iter: 13, Kind: WorkerRestart, Target: "agent-3"},
			{Iter: 16, Kind: DropBurst, Rate: 0.2, Dur: 3},
		},
	}
	h, err := New(Config{
		Workers:     4,
		TotalBatch:  24,
		Schedule:    sched,
		Tracer:      rec,
		Cluster:     cl,
		BucketElems: 20,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	if err := h.Run(sched.Iters()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	rep := h.Report()
	if len(rep.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", rep.FaultErrors)
	}
	if rep.FinalWorkers != 4 {
		t.Fatalf("final workers = %d, want 4", rep.FinalWorkers)
	}
	if !rep.Consistent {
		t.Fatal("replicas diverged across two-node reconstructions")
	}
	if math.IsNaN(rep.FinalLoss) || math.IsInf(rep.FinalLoss, 0) {
		t.Fatalf("final loss = %v", rep.FinalLoss)
	}
	if free := cl.NumFree(); free != 0 {
		t.Fatalf("%d GPUs free with 4 workers active, want 0", free)
	}
	var reduces int
	for _, sp := range rec.Snapshot() {
		if sp.Name != "collective.allreduce" {
			continue
		}
		reduces++
		if link, ok := sp.Attr("link"); !ok || link != "L4" {
			t.Fatalf("allreduce span link = %q (ok=%v), want L4", link, ok)
		}
		if _, ok := sp.Attr("bucket"); !ok {
			t.Fatal("allreduce span missing bucket attr")
		}
	}
	if reduces == 0 {
		t.Fatal("no allreduce spans recorded")
	}
	h.Close()
	if free := cl.NumFree(); free != 4 {
		t.Fatalf("%d GPUs free after Close, want 4", free)
	}
}
