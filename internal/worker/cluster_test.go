package worker

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
	"github.com/elan-sys/elan/internal/topology"
)

// smallCluster builds a 2-node × 2-GPU simulated cluster (4 GPUs): a
// 4-worker fleet spans both nodes (L4 label) while 3 or fewer workers pack
// onto fewer links.
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
// placed across a simulated two-node cluster with gradient bucketing enabled:
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
		t.Fatal("replicas diverged on two-node group")
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

// steadyComm trains the benchmark's steady_comm shape — 8 workers, three
// 65536-element buckets, 3 samples a rank, layers wide enough that every
// matmul goes to the kernel pool — for 20 steps, on cl when it is not nil,
// and returns the trained state.
func steadyComm(t *testing.T, cl *topology.Cluster) []float64 {
	t.Helper()
	ds, err := data.GenGaussianMixture(21, 1024, 256, 10)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
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
		t.Fatal("replicas diverged")
	}
	return exportState(t, f)
}

// twoByFour builds the benchmark's 2-node × 4-GPU simulated cluster.
func twoByFour(t *testing.T) *topology.Cluster {
	t.Helper()
	geom := topology.DefaultGeometry()
	geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 1, 2, 2
	cl, err := topology.NewCluster(geom)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	return cl
}

// expectSameState fails at the first element of got whose bits differ from
// want's.
func expectSameState(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: state[%d] = %v, want %v", label, i, got[i], want[i])
		}
	}
}

// TestFleetStateIndependentOfKernelParallelism trains steady_comm on 2 nodes
// × 4 GPUs at parallelism 1, 2 and 8. The eight ranks share the pool's
// region slots, so which rank computes inline and which blocks a helper
// takes differ from run to run and setting to setting; the trained state
// must not.
func TestFleetStateIndependentOfKernelParallelism(t *testing.T) {
	guardGoroutines(t) // before the parallelism changes: helpers count as goroutines
	run := func(parallelism int) []float64 {
		prev := tensor.SetParallelism(parallelism)
		defer tensor.SetParallelism(prev)
		return steadyComm(t, twoByFour(t))
	}
	serial := run(1)
	for _, parallelism := range []int{2, 8} {
		expectSameState(t, fmt.Sprintf("parallelism %d", parallelism), run(parallelism), serial)
	}
}

// TestFleetStateIndependentOfPlacement trains steady_comm once without a
// cluster and once on 2 nodes × 4 GPUs: every group runs the same ring, so
// where the ranks are placed must not show in a single bit of the trained
// state.
func TestFleetStateIndependentOfPlacement(t *testing.T) {
	guardGoroutines(t)
	expectSameState(t, "on 2x4", steadyComm(t, twoByFour(t)), steadyComm(t, nil))
}

// TestFleetClusterCrashRejoin drives the failure-mitigation loop on a
// cluster-placed fleet: crashing a worker shrinks the reservation at the
// next sweep, rejoining regrows it, and the group stays usable throughout —
// the two-node group-reconstruction path of crash recovery.
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
// cluster and reduce over L4; scaling in to 2 re-packs the placement onto
// one node (L1); scaling back out spans the nodes again. The reservation follows
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

// TestEveryTransitionIsOneResize drives a Cluster fleet through every change
// of who trains — construction, scale-out, a rolled-back admission,
// scale-in, a crash and its sweep, rejoins and a refused rejoin — and after
// each checks that the agents, the group and the reservation moved together:
// as many agents as ranks as reserved GPUs, the rest of the cluster free,
// and the allreduce spans labelled with the widest link of the reservation,
// as collective.LinkLabelOf computes it over a Clustered topology.
func TestEveryTransitionIsOneResize(t *testing.T) {
	guardGoroutines(t)
	cl := twoByFour(t)
	rec := telemetry.NewRecorder(clock.Wall{}, 8192)
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 24,
		LR: 0.05, Momentum: 0.9, Seed: 21, Tracer: rec, Cluster: cl, BucketElems: 40,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	// check trains one step, which also sweeps a crashed agent, and checks
	// the fleet's shape and the link label of that step's allreduces.
	check := func(what string, workers int, link string) {
		t.Helper()
		rec.Reset()
		steps(t, f, 1)
		f.mu.Lock()
		agents, ranks, placed := len(f.agents), f.group.Size(), len(f.gpus)
		ids := topology.IDsOf(f.gpus)
		f.mu.Unlock()
		if agents != workers || ranks != workers || placed != workers {
			t.Fatalf("%s: %d agents, %d ranks, %d GPUs, want %d each", what, agents, ranks, placed, workers)
		}
		if free := cl.NumFree(); free != 8-workers {
			t.Fatalf("%s: %d GPUs free, want %d", what, free, 8-workers)
		}
		topo, err := collective.NewClustered(ids)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if want := collective.LinkLabelOf(topo); want != link {
			t.Fatalf("%s: reservation %v spans %s, want %s", what, ids, want, link)
		}
		var reduces int
		for _, sp := range rec.Snapshot() {
			if sp.Name != "collective.allreduce" {
				continue
			}
			reduces++
			if got, _ := sp.Attr("link"); got != link {
				t.Fatalf("%s: allreduce link %q, want %q", what, got, link)
			}
		}
		if reduces == 0 {
			t.Fatalf("%s: no allreduce spans", what)
		}
	}
	check("construction", 2, "L1")
	scaleOutNow(t, f, 4)
	check("scale-out", 6, "L4")
	failAdmission(t, f, 2, nil)
	check("rolled-back admission", 6, "L4")
	if err := f.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	steps(t, f, 1) // applies the scale-in
	check("scale-in", 4, "L2")
	for _, name := range []string{"agent-1", "agent-3"} {
		if err := f.CrashWorker(name); err != nil {
			t.Fatalf("CrashWorker(%s): %v", name, err)
		}
	}
	check("crash and sweep", 2, "L1")
	if err := f.RejoinWorker("agent-1"); err != nil {
		t.Fatalf("RejoinWorker: %v", err)
	}
	check("rejoin", 3, "L2")
	if err := f.RejoinWorker("agent-3"); err != nil {
		t.Fatalf("RejoinWorker: %v", err)
	}
	check("second rejoin", 4, "L2")
	if err := f.RejoinWorker("agent-5"); err == nil { // scaled in; 5 workers do not divide 24
		t.Fatal("rejoin to 5 workers on a batch of 24 succeeded")
	}
	check("refused rejoin", 4, "L2")
	if !f.ReplicasConsistent() {
		t.Fatal("replicas diverged")
	}
}
