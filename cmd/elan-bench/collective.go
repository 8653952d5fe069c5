package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
)

// collReport is the -collective report: the measured in-process ring
// allreduce, plus the analytic model's flat and hierarchical predictions
// for the hardware regime a hierarchy is built for.
//
// The two sections deliberately tell different stories. In-process "links"
// are Go channels and all cost the same, so the one ring the groups run is
// measured to pin the allocation-free contract and give a real baseline,
// not a speedup (a two-tier engine measured 1.10 against the ring's
// 0.83 ms here, and was removed). The speedup lives where the topology
// does: the simulated section evaluates both schedules under NVLink-class
// intra-node bandwidth against an IB network, where only the leaders-only
// ring touches the slow links and weak scaling stays near-linear.
type collReport struct {
	Measured     []hotBenchResult `json:"measured"`
	MeasuredNote string           `json:"measured_note"`
	Simulated    collSimulated    `json:"simulated"`
}

// collSimulated is the perfmodel section of the -collective report.
type collSimulated struct {
	Note        string          `json:"note"`
	Comm        collCommParams  `json:"comm"`
	Model       string          `json:"model"`
	GradBytes   int64           `json:"grad_bytes"`
	Allreduce   []collSimPoint  `json:"allreduce"`
	WeakScaling []collWeakPoint `json:"weak_scaling"`
}

// collCommParams records the CommModel parameters the simulation ran under,
// so the committed report is reproducible.
type collCommParams struct {
	LatencyPerStepNs     int64   `json:"latency_per_step_ns"`
	IntraNodeBytesPerSec float64 `json:"intra_node_bytes_per_sec"`
	InterNodeBytesPerSec float64 `json:"inter_node_bytes_per_sec"`
	GPUsPerNode          int     `json:"gpus_per_node"`
}

// collSimPoint compares one worker count's flat and hierarchical allreduce
// times for the model's full gradient.
type collSimPoint struct {
	Workers int     `json:"workers"`
	Nodes   int     `json:"nodes"`
	FlatNs  float64 `json:"flat_ns"`
	HierNs  float64 `json:"hier_ns"`
	Speedup float64 `json:"speedup"`
}

// collWeakPoint is one point of the weak-scaling curve (fixed per-worker
// batch). Efficiency is throughput relative to perfectly linear scaling from
// one worker; near-linear hierarchical scaling is the paper's Figure 3/4
// shape.
type collWeakPoint struct {
	Workers        int     `json:"workers"`
	FlatPerSec     float64 `json:"flat_samples_per_sec"`
	HierPerSec     float64 `json:"hier_samples_per_sec"`
	FlatEfficiency float64 `json:"flat_efficiency"`
	HierEfficiency float64 `json:"hier_efficiency"`
}

// nvlinkCommModel is the simulated hardware regime: the default testbed's
// latency and IB network, with NVLink-class intra-node links. This is the
// regime hierarchical collectives are designed for — the intra:inter
// bandwidth gap is wide enough that spending extra intra-node volume to keep
// the network traffic leaders-only is a clear win.
func nvlinkCommModel() perfmodel.CommModel {
	cm := perfmodel.DefaultCommModel()
	cm.IntraNodeBytesPerSec = 60e9
	return cm
}

// measureCollective times the 8-rank ring on a 64k-element vector,
// in-process.
func measureCollective(quick bool) ([]hotBenchResult, error) {
	clk := clock.Wall{}
	iters := 200
	if quick {
		iters = 32 // CI reads allocs_per_op < 1 off the quick report; at 4 a few runtime mallocs failed it
	}
	const ranks, vecLen = 8, 1 << 16

	g, err := collective.NewGroup(ranks)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	vecs := make([][]float64, ranks)
	for r := range vecs {
		vecs[r] = make([]float64, vecLen)
	}
	for r := 1; r < ranks; r++ {
		r := r
		go func() {
			for g.AllReduce(r, vecs[r]) == nil {
			}
		}()
	}
	flat, err := measureHot(clk, fmt.Sprintf("allreduce_flat_%dx%d", ranks, vecLen), iters, func() error {
		return g.AllReduce(0, vecs[0])
	})
	if err != nil {
		return nil, err
	}
	return []hotBenchResult{flat}, nil
}

// simulateCollective evaluates the analytic comm model in the NVLink regime
// for VGG-19's gradient: flat vs hierarchical allreduce times across node
// counts, and the weak-scaling throughput curve. VGG-19 is the zoo's most
// communication-bound model (a half-gigabyte gradient), so its curve
// actually exposes the allreduce term — overlap hides ResNet-class comm
// entirely at a comfortable batch and both curves degenerate to 1.0.
func simulateCollective() collSimulated {
	cm := nvlinkCommModel()
	m := models.VGG19()
	bytes := m.GradBytes()
	sim := collSimulated{
		Note: "analytic model, NVLink-class intra-node links vs IB network; " +
			"hierarchical keeps network traffic leaders-only so allreduce time " +
			"scales with nodes, not workers",
		Comm: collCommParams{
			LatencyPerStepNs:     cm.LatencyPerStep.Nanoseconds(),
			IntraNodeBytesPerSec: cm.IntraNodeBytesPerSec,
			InterNodeBytesPerSec: cm.InterNodeBytesPerSec,
			GPUsPerNode:          cm.GPUsPerNode,
		},
		Model:     m.Name,
		GradBytes: bytes,
	}

	flatCM, hierCM := cm, cm
	hierCM.Hierarchical = true
	for _, n := range []int{8, 16, 32, 64} {
		flat := flatCM.AllreduceTime(n, bytes)
		hier := hierCM.AllreduceTime(n, bytes)
		sim.Allreduce = append(sim.Allreduce, collSimPoint{
			Workers: n,
			Nodes:   (n + cm.GPUsPerNode - 1) / cm.GPUsPerNode,
			FlatNs:  float64(flat.Nanoseconds()),
			HierNs:  float64(hier.Nanoseconds()),
			Speedup: float64(flat) / float64(hier),
		})
	}

	const perWorkerBatch = 32
	flatPerf, hierPerf := perfmodel.New(flatCM), perfmodel.New(hierCM)
	base, err := flatPerf.Throughput(m, 1, perWorkerBatch)
	if err != nil || base <= 0 {
		return sim // zoo model with default comm cannot fail; keep report valid
	}
	for _, n := range []int{1, 2, 4, 8, 16, 32, 64} {
		ft, err1 := flatPerf.Throughput(m, n, perWorkerBatch)
		ht, err2 := hierPerf.Throughput(m, n, perWorkerBatch)
		if err1 != nil || err2 != nil {
			continue
		}
		linear := base * float64(n)
		sim.WeakScaling = append(sim.WeakScaling, collWeakPoint{
			Workers:        n,
			FlatPerSec:     ft,
			HierPerSec:     ht,
			FlatEfficiency: ft / linear,
			HierEfficiency: ht / linear,
		})
	}
	return sim
}

// writeCollectiveJSON runs the collective benchmarks and simulation and
// writes the combined report.
func writeCollectiveJSON(path string, quick bool, w io.Writer) error {
	measured, err := measureCollective(quick)
	if err != nil {
		return err
	}
	report := collReport{
		Measured: measured,
		MeasuredNote: "in-process links are uniform-speed Go channels, so every " +
			"group runs this one ring whatever its placement; the row pins the " +
			"allocation-free steady state, not a speedup — see simulated",
		Simulated: simulateCollective(),
	}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		return err
	}
	for _, r := range report.Measured {
		fmt.Fprintf(w, "%-28s %12.0f ns/op %8.1f allocs/op\n", r.Name, r.NsPerOp, r.AllocsPerOp)
	}
	for _, p := range report.Simulated.Allreduce {
		fmt.Fprintf(w, "sim %2d workers (%d nodes): flat %-12v hier %-12v speedup %.2fx\n",
			p.Workers, p.Nodes,
			time.Duration(p.FlatNs), time.Duration(p.HierNs), p.Speedup)
	}
	fmt.Fprintf(w, "wrote collective report to %s\n", path)
	return nil
}
