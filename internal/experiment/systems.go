package experiment

import (
	"fmt"
	"io"
	"math/rand"

	"github.com/elan-sys/elan/internal/baseline"
	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
	"github.com/elan-sys/elan/internal/replication"
	"github.com/elan-sys/elan/internal/topology"
)

// Fig08 regenerates Figure 8: effective bandwidth of the three transports
// (P2P, SHM, NET) as a function of message size.
func Fig08(w io.Writer) []*metrics.Series {
	c := newCluster()
	sizes := []int64{4 << 10, 64 << 10, 1 << 20, 16 << 20, 256 << 20, 1 << 30}
	t := metrics.NewTable("Figure 8: transport bandwidth vs message size (GB/s)",
		"Size", "P2P", "SHM", "NET")
	var series []*metrics.Series
	byTr := map[topology.Transport]*metrics.Series{}
	for _, tr := range []topology.Transport{topology.P2P, topology.SHM, topology.NET} {
		s := &metrics.Series{Name: tr.String()}
		byTr[tr] = s
		series = append(series, s)
	}
	for _, size := range sizes {
		row := []any{fmtBytes(size)}
		for _, tr := range []topology.Transport{topology.P2P, topology.SHM, topology.NET} {
			bw := c.EffectiveBandwidth(tr, size) / 1e9
			byTr[tr].Add(float64(size), bw)
			row = append(row, bw)
		}
		t.AddRow(row...)
	}
	t.Render(w)
	return series
}

// Fig09 regenerates the Figure 9 example: adding workers E and F to the
// 4-worker job {A, B, C, D} and printing the topology-aware replication
// plan with its concurrency structure.
func Fig09(w io.Writer) (*replication.Plan, error) {
	a := topology.GPUID{Node: 0, Socket: 0, Switch: 0, Index: 0}
	b := topology.GPUID{Node: 0, Socket: 0, Switch: 0, Index: 1}
	cw := topology.GPUID{Node: 0, Socket: 1, Switch: 0, Index: 0}
	d := topology.GPUID{Node: 1, Socket: 0, Switch: 0, Index: 0}
	e := topology.GPUID{Node: 0, Socket: 1, Switch: 0, Index: 1}
	f := topology.GPUID{Node: 1, Socket: 0, Switch: 1, Index: 0}
	m := models.ResNet50()
	plan, err := replication.NewPlan(
		[]topology.GPUID{a, b, cw, d}, []topology.GPUID{e, f},
		m.GPUStateBytes(), m.CPUStateBytes)
	if err != nil {
		return nil, err
	}
	c := newCluster()
	t := metrics.NewTable("Figure 9: topology-aware replication plan (E,F join A-D)",
		"Target", "Source", "Level", "Transport", "Time")
	for _, pair := range plan.Pairs {
		t.AddRow(pair.Target.String(), pair.Source.String(), pair.Level.String(),
			pair.Via.String(), fmtDur(c.TransferTime(pair.Source, pair.Target, plan.GPUBytes)))
	}
	t.AddRow("TOTAL (concurrent)", "", "", "", fmtDur(plan.Duration(c)))
	t.Render(w)
	return plan, nil
}

// Fig11 regenerates Figure 11: the time breakdown of an S&R scale-out,
// showing start + initialization dominating. The phases are S&R's Adjust
// without jitter, i.e. their means.
func Fig11(w io.Writer) (*metrics.Table, error) {
	costs := core.DefaultSystemCosts()
	costs.JitterRel = 0
	rep, err := baseline.NewSR(costs, checkpoint.DefaultFSModel(), 11).Adjust(coord.ScaleOut, models.ResNet50(), 8, 16)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Figure 11: S&R time breakdown (ResNet-50, 8 -> 16 workers)",
		"Phase", "Time", "Share")
	for _, p := range rep.Breakdown {
		t.AddRow(p.Name, fmtDur(p.Duration), fmt.Sprintf("%.1f%%", 100*float64(p.Duration)/float64(rep.Pause)))
	}
	t.AddRow("TOTAL", fmtDur(rep.Pause), "100%")
	t.Render(w)
	return t, nil
}

// Fig12 regenerates the Figure 10/12 timeline comparison: the training
// pause of one scale-out under S&R vs Elan, with Elan's hidden start/init.
func Fig12(w io.Writer) (*metrics.Table, error) {
	c := newCluster()
	m := models.ResNet50()
	gpus, err := c.Reserve(4)
	if err != nil {
		return nil, err
	}
	job, err := core.NewJob(core.JobConfig{
		Model: m, Cluster: c, Workers: topology.IDsOf(gpus),
		TotalBatch: 128, LR: 0.1, Seed: 12,
	})
	if err != nil {
		return nil, err
	}
	add, err := c.Reserve(2)
	if err != nil {
		return nil, err
	}
	elanRep, err := job.ScaleOut(topology.IDsOf(add))
	if err != nil {
		return nil, err
	}
	sr := baseline.NewSR(core.DefaultSystemCosts(), checkpoint.DefaultFSModel(), 12)
	srRep, err := sr.Adjust(coord.ScaleOut, m, 4, 6)
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable("Figure 10/12: scale-out timeline, S&R vs Elan (4 -> 6 workers)",
		"System", "Phase", "On critical path", "Time")
	for _, p := range srRep.Breakdown {
		t.AddRow("S&R", p.Name, "yes", fmtDur(p.Duration))
	}
	t.AddRow("S&R", "TOTAL PAUSE", "", fmtDur(srRep.Pause))
	for _, p := range elanRep.Breakdown {
		t.AddRow("Elan", p.Name, "yes", fmtDur(p.Duration))
	}
	t.AddRow("Elan", "start+init (async)", "no (overlapped)", fmtDur(elanRep.HiddenStartInit))
	t.AddRow("Elan", "TOTAL PAUSE", "", fmtDur(elanRep.Pause))
	t.Render(w)
	return t, nil
}

// Fig14 regenerates Figure 14: Elan's runtime overhead (per-mille of
// iteration time) for the five models on 2-64 workers.
func Fig14(w io.Writer) (*metrics.Table, error) {
	c := newCluster()
	t := metrics.NewTable("Figure 14: Elan runtime overhead (per-mille)",
		"Model", "Workers", "Overhead")
	for _, m := range models.Zoo() {
		for _, n := range []int{2, 4, 8, 16, 32, 64} {
			gpus, err := c.Reserve(n)
			if err != nil {
				return nil, err
			}
			job, err := core.NewJob(core.JobConfig{
				Model: m, Cluster: c, Workers: topology.IDsOf(gpus),
				TotalBatch: n * m.MaxPerWorkerBatch / 2, LR: 0.1, Seed: 14,
			})
			if err != nil {
				return nil, err
			}
			ov, err := job.RuntimeOverhead()
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, n, fmt.Sprintf("%.3f", ov*1000))
			c.Release(gpus)
		}
	}
	t.Render(w)
	return t, nil
}

// AdjustmentCase is one (kind, from, to) configuration of Figure 15.
type AdjustmentCase struct {
	Kind coord.Kind
	From int
	To   int
}

// Fig15Cases returns the paper's adjustment matrix: migrations at equal
// size, scale-ins halving, scale-outs doubling.
func Fig15Cases() []AdjustmentCase {
	return []AdjustmentCase{
		{coord.Migrate, 8, 8}, {coord.Migrate, 16, 16}, {coord.Migrate, 32, 32},
		{coord.ScaleIn, 16, 8}, {coord.ScaleIn, 32, 16}, {coord.ScaleIn, 64, 32},
		{coord.ScaleOut, 8, 16}, {coord.ScaleOut, 16, 32}, {coord.ScaleOut, 32, 64},
	}
}

// Fig15 regenerates Figure 15: the adjustment pause of Elan vs S&R for
// every case and model (mean +/- stddev over Repeats runs). Elan's pause of
// run r is core's model on its canonical placement with seed r.
func Fig15(w io.Writer) (*metrics.Table, error) {
	costs := core.DefaultSystemCosts()
	t := metrics.NewTable("Figure 15: adjustment pause, Elan vs S&R (seconds)",
		"Model", "Case", "Elan", "S&R", "Speedup")
	for _, m := range models.Zoo() {
		for _, cse := range Fig15Cases() {
			elanSamples := make([]float64, 0, Repeats)
			srSamples := make([]float64, 0, Repeats)
			for r := 0; r < Repeats; r++ {
				elan, err := costs.AdjustInTreeOrder(rand.New(rand.NewSource(int64(r))), cse.Kind, m, cse.From, cse.To)
				if err != nil {
					return nil, fmt.Errorf("elan %s %v: %w", m.Name, cse, err)
				}
				elanSamples = append(elanSamples, elan.Pause.Seconds())
				sr := baseline.NewSR(costs, checkpoint.DefaultFSModel(), int64(100+r))
				rep, err := sr.Adjust(cse.Kind, m, cse.From, cse.To)
				if err != nil {
					return nil, fmt.Errorf("sr %s %v: %w", m.Name, cse, err)
				}
				srSamples = append(srSamples, rep.Pause.Seconds())
			}
			es := metrics.Summarize(elanSamples)
			ss := metrics.Summarize(srSamples)
			t.AddRow(m.Letter, fmt.Sprintf("%v %d->%d", cse.Kind, cse.From, cse.To),
				es, ss, fmt.Sprintf("%.1fx", ss.Mean/es.Mean))
		}
	}
	t.Render(w)
	return t, nil
}

// Fig16 regenerates Figure 16: relative training throughput of Litz-2 and
// Litz-4 versus Elan across models and worker counts.
func Fig16(w io.Writer) (*metrics.Table, error) {
	t := metrics.NewTable("Figure 16: Litz relative throughput vs Elan",
		"Model", "Workers", "Litz-2", "Litz-4")
	l2, err := baseline.NewLitz(baseline.DefaultLitzConfig(2), perfmodel.Default())
	if err != nil {
		return nil, err
	}
	l4, err := baseline.NewLitz(baseline.DefaultLitzConfig(4), perfmodel.Default())
	if err != nil {
		return nil, err
	}
	for _, m := range models.Zoo() {
		for _, n := range []int{8, 16, 32, 64} {
			bs := m.MaxPerWorkerBatch / 2
			r2, err := l2.RelativeThroughput(m, n, bs)
			if err != nil {
				return nil, err
			}
			r4, err := l4.RelativeThroughput(m, n, bs)
			if err != nil {
				return nil, err
			}
			t.AddRow(m.Name, n, fmt.Sprintf("%.1f%%", 100*r2), fmt.Sprintf("%.1f%%", 100*r4))
		}
	}
	t.Render(w)
	return t, nil
}
