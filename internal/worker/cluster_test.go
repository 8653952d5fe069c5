package worker

import (
	"math"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
	"github.com/elan-sys/elan/internal/topology"
)

// smallCluster builds a 2-node × 2-GPU simulated cluster (4 GPUs): a
// 4-worker fleet spans both nodes (hierarchical group, L4 label) while 3 or
// fewer workers pack onto fewer links.
func smallCluster(t *testing.T) *topology.Cluster {
	t.Helper()
	geom := topology.DefaultGeometry()
	geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 1, 1, 2
	c, err := topology.NewCluster(geom)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return c
}

// TestFleetOnClusterHierarchical trains a fleet whose collective group is
// placed on a simulated two-node cluster with gradient bucketing enabled:
// the allreduce spans must carry the placement-derived L4 link label and
// bucket indices, training must keep the replica invariant, and Close must
// return the GPU reservation.
func TestFleetOnClusterHierarchical(t *testing.T) {
	guardGoroutines(t)
	cl := smallCluster(t)
	rec := telemetry.NewRecorder(clock.Wall{}, 4096)
	f, err := NewFleet(FleetConfig{
		Dataset:     dataset(t, 1024),
		LayerSizes:  []int{4, 16, 3},
		Workers:     4,
		TotalBatch:  64,
		LR:          0.05,
		Momentum:    0.9,
		Seed:        21,
		Tracer:      rec,
		Cluster:     cl,
		BucketElems: 40,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	if free := cl.NumFree(); free != 0 {
		t.Fatalf("%d GPUs free with 4 workers placed, want 0", free)
	}
	for i := 0; i < 10; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged on hierarchical group")
	}
	var reduces, bucketed int
	for _, sp := range rec.Snapshot() {
		if sp.Name != "collective.allreduce" {
			continue
		}
		reduces++
		link, ok := sp.Attr("link")
		if !ok || link != "L4" {
			t.Fatalf("allreduce span link = %q (ok=%v), want L4", link, ok)
		}
		if _, ok := sp.Attr("nodes"); !ok {
			t.Fatal("hierarchical allreduce span missing nodes attr")
		}
		if _, ok := sp.Attr("bucket"); ok {
			bucketed++
		}
	}
	if reduces == 0 {
		t.Fatal("no allreduce spans recorded")
	}
	if bucketed != reduces {
		t.Fatalf("%d of %d allreduce spans tagged with bucket index", bucketed, reduces)
	}
	f.Close()
	if free := cl.NumFree(); free != 4 {
		t.Fatalf("%d GPUs free after Close, want 4", free)
	}
}

// TestFleetStateIndependentOfKernelParallelism trains the benchmark's
// steady_comm shape — 8 workers on 2 nodes × 4 GPUs, three 65536-element
// buckets, 3 samples a rank, layers wide enough that every matmul goes to
// the kernel pool — for 20 steps at parallelism 1, 2 and 8. The eight ranks
// share the pool's region slots, so which rank computes inline and which
// blocks a helper takes differ from run to run and setting to setting; the
// trained state must not.
func TestFleetStateIndependentOfKernelParallelism(t *testing.T) {
	guardGoroutines(t) // before the parallelism changes: helpers count as goroutines
	ds, err := data.GenGaussianMixture(21, 1024, 256, 10)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	geom := topology.DefaultGeometry()
	geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 1, 2, 2
	run := func(parallelism int) []float64 {
		prev := tensor.SetParallelism(parallelism)
		defer tensor.SetParallelism(prev)
		cl, err := topology.NewCluster(geom)
		if err != nil {
			t.Fatalf("NewCluster: %v", err)
		}
		f, err := NewFleet(FleetConfig{
			Dataset: ds, LayerSizes: []int{256, 384, 384, 256, 10}, Workers: 8, TotalBatch: 24,
			LR: 0.005, Momentum: 0.9, Seed: 21, Cluster: cl, BucketElems: 65536,
		})
		if err != nil {
			t.Fatalf("NewFleet: %v", err)
		}
		defer f.Close()
		steps(t, f, 20)
		if !f.ReplicasConsistent() {
			t.Fatalf("replicas diverged at parallelism %d", parallelism)
		}
		return exportState(t, f)
	}
	serial := run(1)
	for _, parallelism := range []int{2, 8} {
		got := run(parallelism)
		for i := range serial {
			if math.Float64bits(got[i]) != math.Float64bits(serial[i]) {
				t.Fatalf("parallelism %d: state[%d] = %v, serial run has %v", parallelism, i, got[i], serial[i])
			}
		}
	}
}

// TestFleetClusterCrashRejoin drives the failure-mitigation loop on a
// cluster-placed fleet: crashing a worker shrinks the reservation at the
// next sweep, rejoining regrows it, and the group stays usable throughout —
// the hierarchical-group-reconstruction path of crash recovery.
func TestFleetClusterCrashRejoin(t *testing.T) {
	guardGoroutines(t)
	cl := smallCluster(t)
	f, err := NewFleet(FleetConfig{
		Dataset:     dataset(t, 1024),
		LayerSizes:  []int{4, 16, 3},
		Workers:     4,
		TotalBatch:  48,
		LR:          0.05,
		Momentum:    0.9,
		Seed:        21,
		Cluster:     cl,
		BucketElems: 25,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
	if err := f.CrashWorker("agent-2"); err != nil {
		t.Fatalf("CrashWorker: %v", err)
	}
	// The next step sweeps the dead rank out and rebuilds the group — and
	// with it the GPU reservation — for the 3 survivors.
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step after crash: %v", err)
	}
	if free := cl.NumFree(); free != 1 {
		t.Fatalf("%d GPUs free after sweep, want 1", free)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if err := f.RejoinWorker("agent-2"); err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("RejoinWorker never succeeded")
		}
	}
	if free := cl.NumFree(); free != 0 {
		t.Fatalf("%d GPUs free after rejoin, want 0", free)
	}
	for i := 0; i < 5; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step after rejoin: %v", err)
		}
	}
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged across crash/rejoin on cluster")
	}
}

// TestFleetClusterElasticPlacement: 4 workers span both nodes of the
// cluster and reduce hierarchically over L4; scaling in to 2 re-packs the
// placement onto one node and the group becomes the flat single-node ring
// (L1); scaling back out spans the nodes again. The reservation follows
// every transition, the replicas stay consistent, and Close returns it.
func TestFleetClusterElasticPlacement(t *testing.T) {
	guardGoroutines(t)
	cl := smallCluster(t)
	rec := telemetry.NewRecorder(clock.Wall{}, 8192)
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 4, TotalBatch: 32,
		LR: 0.05, Momentum: 0.9, Seed: 21, Tracer: rec, Cluster: cl, BucketElems: 40,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	// phase trains 5 steps and checks the GPUs left free and the link labels
	// of the allreduces those steps ran.
	phase := func(name string, free int, link string) {
		t.Helper()
		rec.Reset()
		steps(t, f, 5)
		if !f.ReplicasConsistent() {
			t.Fatalf("%s: replicas diverged", name)
		}
		if got := cl.NumFree(); got != free {
			t.Fatalf("%s: %d GPUs free, want %d", name, got, free)
		}
		links := map[string]bool{}
		for _, sp := range rec.Snapshot() {
			if sp.Name == "collective.allreduce" {
				l, _ := sp.Attr("link")
				links[l] = true
			}
		}
		if len(links) != 1 || !links[link] {
			t.Fatalf("%s: allreduce links %v, want {%s}", name, links, link)
		}
	}
	phase("4 workers, two nodes", 0, "L4")
	if err := f.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	steps(t, f, 1) // applies the scale-in
	phase("2 workers, one node", 2, "L1")
	scaleOutNow(t, f, 2)
	phase("back to 4 workers", 0, "L4")
	f.Close()
	if free := cl.NumFree(); free != 4 {
		t.Fatalf("%d GPUs free after Close, want 4", free)
	}
}
