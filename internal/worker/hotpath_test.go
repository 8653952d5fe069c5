package worker

import (
	"math/rand"
	"runtime"
	"testing"

	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/racecheck"
)

// newAgent builds an agent with a deterministic replica and starts its
// loop, off any fleet: the tests that drive one agent directly use it.
func newAgent(name string, seed int64, sizes []int, lr, momentum float64, bucketElems int, ds *data.Dataset) (*Agent, error) {
	r, err := newRig(rand.New(rand.NewSource(seed)), sizes, lr, momentum, bucketElems)
	if err != nil {
		return nil, err
	}
	return launchAgent(name, r, true, ds), nil
}

// TestAgentStepZeroAllocs is the tentpole proof at the worker layer: once
// the agent's batch buffers and network workspaces are warm, a full training
// step — batch materialization, forward, loss, backward, allreduce,
// optimizer — allocates nothing. The step body is driven directly (the agent
// loop is idle), excluding only the mailbox round-trip; a single-rank group
// makes the allreduce a no-op so the collective transport is measured
// separately in its own package.
func TestAgentStepZeroAllocs(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	ds, err := data.GenGaussianMixture(1, 512, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newAgent("bench-0", 1, []int{8, 32, 32, 3}, 0.05, 0.9, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer a.stop()
	g, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	cmd := command{rank: 0, n: 1, lo: 0, hi: 32, lr: 0.05, group: g}
	if r := a.step(ds, cmd); r.err != nil { // warm the workspaces
		t.Fatal(r.err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if r := a.step(ds, cmd); r.err != nil {
			t.Fatal(r.err)
		}
	}); avg != 0 {
		t.Fatalf("%v allocs per agent step, want 0", avg)
	}
	// Elastic rounds move the shard width and later move it back: once both
	// widths are warm, alternating between them allocates nothing either.
	narrow := cmd
	narrow.hi = 16
	if r := a.step(ds, narrow); r.err != nil { // warm the second width
		t.Fatal(r.err)
	}
	if avg := testing.AllocsPerRun(100, func() {
		if r := a.step(ds, cmd); r.err != nil {
			t.Fatal(r.err)
		}
		if r := a.step(ds, narrow); r.err != nil {
			t.Fatal(r.err)
		}
	}); avg != 0 {
		t.Fatalf("%v allocs per pair of agent steps alternating two shard widths, want 0", avg)
	}
}

// TestRigHoldsThreeParameterVectors: building a rig and stepping it ten times
// allocates three parameter-sized vectors — parameters, velocity, gradients —
// and the batch-sized workspaces, nothing else of that size: no flat copy of
// the gradient in the reducer, no weight-gradient scratch in the layers (the
// step before the gradient arena held five).
func TestRigHoldsThreeParameterVectors(t *testing.T) {
	if racecheck.Enabled {
		t.Skip("race instrumentation allocates; alloc guards run in the non-race CI job")
	}
	const batch = 4
	sizes := []int{16, 256, 256, 4}
	ds, err := data.GenGaussianMixture(1, 512, sizes[0], sizes[len(sizes)-1])
	if err != nil {
		t.Fatal(err)
	}
	g, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	a, err := newAgent("rig-0", 1, sizes, 0.05, 0.9, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer a.stop()
	cmd := command{rank: 0, n: 1, lo: 0, hi: batch, lr: 0.05, group: g}
	for i := 0; i < 10; i++ {
		if r := a.step(ds, cmd); r.err != nil {
			t.Fatal(r.err)
		}
	}
	runtime.ReadMemStats(&after)
	// Workspaces: per layer an input copy, an output and an input gradient
	// of batch rows, plus masks, softmax buffer and batch — well under eight
	// batch-row matrices for every layer width.
	widths := 0
	for _, s := range sizes {
		widths += s
	}
	vector := 8 * a.rep.Net.NumParams()
	budget := uint64(3.2*float64(vector)) + uint64(8*8*batch*widths)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Fatalf("a rig and ten steps allocated %d bytes = %.2f parameter vectors of %d bytes, want at most %d (three vectors and workspaces)",
			got, float64(got)/float64(vector), vector, budget)
	}
}

// TestAgentStepRejectsEmptyShard covers the guard that protects the reused
// batch buffers from degenerate shard ranges.
func TestAgentStepRejectsEmptyShard(t *testing.T) {
	ds, err := data.GenGaussianMixture(1, 64, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	a, err := newAgent("bench-1", 1, []int{4, 8, 2}, 0.05, 0.9, 0, ds)
	if err != nil {
		t.Fatal(err)
	}
	defer a.stop()
	g, err := collective.NewGroup(1)
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if r := a.step(ds, command{rank: 0, n: 1, lo: 5, hi: 5, lr: 0.1, group: g}); r.err == nil {
		t.Fatal("empty shard accepted")
	}
	if r := a.step(ds, command{rank: 0, n: 1, lo: 9, hi: 5, lr: 0.1, group: g}); r.err == nil {
		t.Fatal("inverted shard accepted")
	}
}
