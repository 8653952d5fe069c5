package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestWriteCollectiveJSON pins the acceptance shape of BENCH_collective.json:
// the ring measured in-process, and the simulated section showing
// hierarchical beating flat at every multi-node point with a near-linear
// weak-scaling curve. It asserts nothing about allocs_per_op: measureHot
// divides process-wide mallocs by a handful of quick-mode iterations, and
// the runtime's own failed this test one run in three. Counted, they were
// one or two 96-byte objects a run (the size class of the sudog a rank
// takes when it blocks on a channel and its P's cache is empty) and never
// the rankScratch refill. TestAllReduceZeroAllocs in internal/collective is
// the allocation guard.
func TestWriteCollectiveJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "collective.json")
	var b strings.Builder
	if err := writeCollectiveJSON(path, true, &b); err != nil {
		t.Fatalf("writeCollectiveJSON: %v", err)
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var report collReport
	if err := json.Unmarshal(buf, &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if len(report.Measured) != 1 {
		t.Fatalf("measured %d rows, want the ring's one", len(report.Measured))
	}
	for _, r := range report.Measured {
		if r.NsPerOp <= 0 {
			t.Errorf("%s: degenerate measurement %+v", r.Name, r)
		}
	}

	sim := report.Simulated
	if sim.GradBytes <= 0 || sim.Model == "" {
		t.Fatalf("simulated section incomplete: %+v", sim)
	}
	multiNode := 0
	for _, p := range sim.Allreduce {
		if p.Nodes < 2 {
			continue
		}
		multiNode++
		if p.HierNs >= p.FlatNs {
			t.Errorf("%d workers (%d nodes): hierarchical %v ns not below flat %v ns",
				p.Workers, p.Nodes, p.HierNs, p.FlatNs)
		}
	}
	if multiNode < 2 {
		t.Fatalf("only %d multi-node simulation points", multiNode)
	}
	for _, p := range sim.WeakScaling {
		if p.HierEfficiency < p.FlatEfficiency {
			t.Errorf("%d workers: hierarchical efficiency %.3f below flat %.3f",
				p.Workers, p.HierEfficiency, p.FlatEfficiency)
		}
		// Near-linear: the hierarchical curve must hold the efficiency floor
		// the perfmodel tests pin (ResNet-50 stays comfortably above it).
		if p.HierEfficiency < 0.6 {
			t.Errorf("%d workers: hierarchical weak efficiency %.3f below 0.6", p.Workers, p.HierEfficiency)
		}
	}
	if n := len(sim.WeakScaling); n < 5 {
		t.Fatalf("weak-scaling curve has only %d points", n)
	}
	if !strings.Contains(b.String(), "wrote") {
		t.Errorf("summary line missing:\n%s", b.String())
	}
}
