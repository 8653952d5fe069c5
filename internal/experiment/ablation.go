package experiment

import (
	"fmt"
	"io"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/replication"
	"github.com/elan-sys/elan/internal/topology"
	"github.com/elan-sys/elan/internal/worker"
)

// This file holds the ablation studies DESIGN.md calls out: each isolates
// one of Elan's design choices and quantifies its contribution.

// AblationReplication compares the topology-aware concurrent replication
// planner against two crippled variants: sequential (same sources, no
// concurrency) and naive (single source, no topology awareness), for a
// range of scale-out sizes.
func AblationReplication(w io.Writer) (*metrics.Table, error) {
	c := bigCluster(16)
	m := models.VGG19() // largest state: replication dominates
	t := metrics.NewTable("Ablation: replication mechanism (VGG-19 state)",
		"Scale-out", "Topology+concurrent", "Topology sequential", "Naive single-source")
	for _, n := range []int{2, 4, 8, 16} {
		// Place one existing worker per node (socket 0) and the matching
		// new worker on the other socket of the same node — the placement
		// an elastic scheduler that grows jobs in place produces. The
		// topology-aware plan uses n concurrent intra-node SHM transfers;
		// the naive plan streams everything from one node over the network.
		var exIDs, addIDs []topology.GPUID
		for i := 0; i < n; i++ {
			exIDs = append(exIDs, topology.GPUID{Node: i, Socket: 0, Switch: 0, Index: 0})
			addIDs = append(addIDs, topology.GPUID{Node: i, Socket: 1, Switch: 0, Index: 0})
		}
		aware, err := replication.NewPlan(exIDs, addIDs, m.GPUStateBytes(), m.CPUStateBytes)
		if err != nil {
			return nil, err
		}
		naive, err := replication.NewNaivePlan(exIDs, addIDs, m.GPUStateBytes(), m.CPUStateBytes)
		if err != nil {
			return nil, err
		}
		// Sequential variant: same pairs, forced shared contention domain.
		seq := &replication.Plan{GPUBytes: aware.GPUBytes, CPUBytes: aware.CPUBytes}
		for _, p := range aware.Pairs {
			p.Contention = "sequential"
			seq.Pairs = append(seq.Pairs, p)
		}
		t.AddRow(fmt.Sprintf("%d->%d", n, 2*n),
			fmtDur(aware.Duration(c)), fmtDur(seq.Duration(c)), fmtDur(naive.Duration(c)))
	}
	t.Render(w)
	return t, nil
}

// AblationCoordination compares Elan's asynchronous coordination (start and
// initialization off the critical path) against a synchronous variant that
// waits for the new workers before resuming.
func AblationCoordination(w io.Writer) (*metrics.Table, error) {
	c := newCluster()
	m := models.ResNet50()
	t := metrics.NewTable("Ablation: asynchronous vs synchronous coordination (ResNet-50)",
		"Scale-out", "Async pause", "Sync pause", "Hidden by async")
	for _, n := range []int{4, 8, 16} {
		gpus, err := c.Reserve(n)
		if err != nil {
			return nil, err
		}
		job, err := core.NewJob(core.JobConfig{
			Model: m, Cluster: c, Workers: topology.IDsOf(gpus),
			TotalBatch: n * 32, LR: 0.1, Seed: int64(n),
		})
		if err != nil {
			return nil, err
		}
		add, err := c.Reserve(n)
		if err != nil {
			return nil, err
		}
		rep, err := job.ScaleOut(topology.IDsOf(add))
		if err != nil {
			return nil, err
		}
		syncPause := rep.Pause + rep.HiddenStartInit
		t.AddRow(fmt.Sprintf("%d->%d", n, 2*n), fmtDur(rep.Pause), fmtDur(syncPause),
			fmt.Sprintf("%.1f%%", 100*float64(rep.HiddenStartInit)/float64(syncPause)))
		c.Release(c.AllGPUs())
	}
	t.Render(w)
	return t, nil
}

// ProgressiveLRResult quantifies the transition stability of one LR-change
// mode: the worst loss observed in the window after the batch-size change,
// relative to the loss just before it. A sharp LR jump produces a large
// transient spike (and, at high enough factors, divergence); the
// progressive ramp keeps the trajectory smooth — the motivation for
// Equation 3.
type ProgressiveLRResult struct {
	Mode      string
	PreLoss   float64
	PeakLoss  float64
	SpikeRate float64 // PeakLoss / PreLoss
	FinalLoss float64
	Diverged  bool
}

// AblationProgressiveLR compares the progressive linear scaling rule
// against an immediate LR jump when the batch grows 32 -> 512 (k=16) on
// the live substrate.
func AblationProgressiveLR(w io.Writer) ([]ProgressiveLRResult, error) {
	const (
		seed     = 31
		samples  = 8192
		features = 16
		classes  = 8
		k        = 16
	)
	train, err := data.GenGaussianMixture(seed, samples, features, classes)
	if err != nil {
		return nil, err
	}
	run := func(progressive bool) (ProgressiveLRResult, error) {
		mode := "immediate"
		if progressive {
			mode = "progressive"
		}
		res := ProgressiveLRResult{Mode: mode}
		fleet, err := worker.NewFleet(worker.FleetConfig{
			Dataset:    train,
			LayerSizes: []int{features, 32, classes},
			Workers:    4,
			TotalBatch: 32,
			LR:         0.02,
			Momentum:   0.9,
			Seed:       seed,
		})
		if err != nil {
			return res, err
		}
		defer fleet.Close()
		var pre float64
		for i := 0; i < 120; i++ {
			l, err := fleet.Step()
			if err != nil {
				return res, err
			}
			pre = l
		}
		res.PreLoss = pre
		if err := fleet.SetTotalBatch(32*k, 40, progressive); err != nil {
			return res, err
		}
		peak, final := 0.0, 0.0
		for i := 0; i < 60; i++ {
			l, err := fleet.Step()
			if err != nil {
				return res, err
			}
			if l > peak {
				peak = l
			}
			final = l
			if fleet.Diverged() {
				res.Diverged = true
				break
			}
		}
		res.PeakLoss = peak
		res.FinalLoss = final
		if pre > 0 {
			res.SpikeRate = peak / pre
		}
		return res, nil
	}
	t := metrics.NewTable("Ablation: progressive vs immediate LR rescale (k=16)",
		"Mode", "Pre loss", "Peak loss after change", "Spike", "Final loss", "Diverged")
	var out []ProgressiveLRResult
	for _, progressive := range []bool{true, false} {
		r, err := run(progressive)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		t.AddRow(r.Mode, r.PreLoss, r.PeakLoss, fmt.Sprintf("%.2fx", r.SpikeRate),
			r.FinalLoss, r.Diverged)
	}
	t.Render(w)
	return out, nil
}

// AblationDataSemantics compares the serial and chunk-based data-loading
// semantics: replication-state size and repartition behaviour (Figure 13).
func AblationDataSemantics(w io.Writer) (*metrics.Table, error) {
	const epoch = 1_281_167 // ImageNet
	serial, err := data.NewSerialLoader(epoch)
	if err != nil {
		return nil, err
	}
	chunked, err := data.NewChunkLoader(epoch, 1024, 16)
	if err != nil {
		return nil, err
	}
	// Consume a third of the epoch on 16 workers.
	for it := 0; it < epoch/3/(16*32); it++ {
		for w := 0; w < 16; w++ {
			if _, _, err := serial.NextBatch(w, 16, 32); err != nil {
				return nil, err
			}
			if _, _, err := chunked.NextBatch(w, 16, 32); err != nil {
				return nil, err
			}
		}
	}
	t := metrics.NewTable("Ablation: serial vs chunk-based data loading (Figure 13)",
		"Semantics", "State size", "Remaining contiguous", "Repartition")
	repart := func(l data.Loader) string {
		// Genuine wall-time measurement of local compute, via the
		// sanctioned substrate rather than the time package.
		clk := clock.Wall{}
		start := clk.Now()
		if err := l.Repartition(16, 24); err != nil {
			return "error"
		}
		return fmt.Sprintf("ok (%v)", clk.Since(start).Round(time.Microsecond))
	}
	t.AddRow("serial", fmtBytes(serial.StateBytes()), "yes (single cursor)", repart(serial))
	t.AddRow("chunk-based", fmtBytes(chunked.StateBytes()), "no (record table)", repart(chunked))
	t.Render(w)
	return t, nil
}
