package experiment

import (
	"fmt"
	"io"
	"time"

	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/sched"
	"github.com/elan-sys/elan/internal/trace"
)

// schedTrace generates the trace used by the scheduling experiments. quick
// shrinks the span so unit tests and short bench runs stay fast.
func schedTrace(seed int64, quick bool) ([]trace.Job, error) {
	cfg := trace.DefaultConfig()
	cfg.Seed = seed
	if quick {
		// Shrink the span but raise the load so the cluster still saturates
		// and queueing (the phenomenon elasticity fixes) occurs: short jobs
		// arriving densely, since the span sits in the diurnal trough.
		cfg.Span = 2 * time.Hour
		cfg.JobsPerDay = 5600
		cfg.MeanServiceMinutes = 15
	}
	return trace.Generate(cfg)
}

// Fig01 regenerates Figure 1: one week of GPU utilization under static
// FIFO scheduling of the synthetic production trace, showing the dramatic
// fluctuation that motivates elasticity.
func Fig01(w io.Writer) (*metrics.Series, error) {
	cfg := trace.DefaultConfig()
	cfg.Span = 7 * 24 * time.Hour
	jobs, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	hours, utils, err := trace.UtilizationSeries(jobs, cfg.ClusterGPUs, 30*time.Minute)
	if err != nil {
		return nil, err
	}
	s := &metrics.Series{Name: "GPU utilization"}
	for i := range hours {
		s.Add(hours[i], utils[i])
	}
	summary := metrics.Summarize(utils)
	t := metrics.NewTable("Figure 1: weekly GPU utilization (static scheduling)",
		"Metric", "Value")
	t.AddRow("mean", fmt.Sprintf("%.1f%%", 100*summary.Mean))
	t.AddRow("min", fmt.Sprintf("%.1f%%", 100*summary.Min))
	t.AddRow("max", fmt.Sprintf("%.1f%%", 100*summary.Max))
	t.AddRow("stddev", fmt.Sprintf("%.1f%%", 100*summary.Stddev))
	t.Render(w)
	metrics.PlotASCII(w, "Figure 1: utilization over one week", 72, 12, s.Downsample(72))
	return s, nil
}

// Fig20Run is one (policy, metrics) outcome.
type Fig20Run struct {
	Policy   sched.Policy
	MeanJPT  time.Duration
	MeanJCT  time.Duration
	Makespan time.Duration
}

// Fig20 regenerates Figure 20: JPT, JCT and makespan under the four
// policies with the ideal system, averaged over `runs` seeds.
func Fig20(w io.Writer, runs int, quick bool) ([]Fig20Run, error) {
	if runs <= 0 {
		runs = 3
	}
	policies := []sched.Policy{sched.FIFO, sched.Backfill, sched.ElasticFIFO, sched.ElasticBackfill}
	t := metrics.NewTable("Figure 20: scheduling with and without elasticity",
		"Policy", "Mean JPT (min)", "Mean JCT (min)", "Makespan (h)")
	var out []Fig20Run
	for _, p := range policies {
		var jpt, jct, mk float64
		for r := 0; r < runs; r++ {
			jobs, err := schedTrace(int64(20+r), quick)
			if err != nil {
				return nil, err
			}
			cfg := sched.DefaultConfig(p, sched.IdealSystem{})
			if quick {
				cfg.Tick = 2 * time.Second
			}
			res, err := sched.Run(cfg, jobs)
			if err != nil {
				return nil, err
			}
			jpt += res.MeanJPT.Minutes()
			jct += res.MeanJCT.Minutes()
			mk += res.Makespan.Hours()
		}
		n := float64(runs)
		run := Fig20Run{
			Policy:   p,
			MeanJPT:  time.Duration(jpt / n * float64(time.Minute)),
			MeanJCT:  time.Duration(jct / n * float64(time.Minute)),
			Makespan: time.Duration(mk / n * float64(time.Hour)),
		}
		out = append(out, run)
		t.AddRow(p.String(), fmt.Sprintf("%.1f", jpt/n), fmt.Sprintf("%.1f", jct/n),
			fmt.Sprintf("%.2f", mk/n))
	}
	// Reductions as the paper reports them.
	byPolicy := make(map[sched.Policy]Fig20Run, len(out))
	for _, r := range out {
		byPolicy[r.Policy] = r
	}
	red := func(a, b time.Duration) string {
		return fmt.Sprintf("%.0f%%", 100*(1-float64(b)/float64(a)))
	}
	t2 := metrics.NewTable("Figure 20 (derived): elastic reductions",
		"Pair", "JPT reduction", "JCT reduction", "Makespan reduction")
	t2.AddRow("E-FIFO vs FIFO",
		red(byPolicy[sched.FIFO].MeanJPT, byPolicy[sched.ElasticFIFO].MeanJPT),
		red(byPolicy[sched.FIFO].MeanJCT, byPolicy[sched.ElasticFIFO].MeanJCT),
		red(byPolicy[sched.FIFO].Makespan, byPolicy[sched.ElasticFIFO].Makespan))
	t2.AddRow("E-BF vs BF",
		red(byPolicy[sched.Backfill].MeanJPT, byPolicy[sched.ElasticBackfill].MeanJPT),
		red(byPolicy[sched.Backfill].MeanJCT, byPolicy[sched.ElasticBackfill].MeanJCT),
		red(byPolicy[sched.Backfill].Makespan, byPolicy[sched.ElasticBackfill].Makespan))
	t.Render(w)
	t2.Render(w)
	return out, nil
}

// Fig21 regenerates Figure 21: GPU utilization over time of one run under
// the static and the elastic policy.
func Fig21(w io.Writer, quick bool) (staticSeries, elasticSeries *metrics.Series, err error) {
	jobs, err := schedTrace(21, quick)
	if err != nil {
		return nil, nil, err
	}
	run := func(p sched.Policy) (*metrics.Series, error) {
		cfg := sched.DefaultConfig(p, sched.IdealSystem{})
		if quick {
			cfg.Tick = 2 * time.Second
		}
		res, err := sched.Run(cfg, jobs)
		if err != nil {
			return nil, err
		}
		s := &metrics.Series{Name: p.String()}
		for i := range res.UtilHours {
			s.Add(res.UtilHours[i], res.UtilVals[i])
		}
		return s, nil
	}
	staticSeries, err = run(sched.Backfill)
	if err != nil {
		return nil, nil, err
	}
	elasticSeries, err = run(sched.ElasticBackfill)
	if err != nil {
		return nil, nil, err
	}
	metrics.PlotASCII(w, "Figure 21: GPU utilization, BF vs E-BF", 72, 12,
		staticSeries.Downsample(72), elasticSeries.Downsample(72))
	fmt.Fprintf(w, "mean utilization: %s %.1f%%, %s %.1f%%\n",
		staticSeries.Name, 100*staticSeries.MeanY(),
		elasticSeries.Name, 100*elasticSeries.MeanY())
	return staticSeries, elasticSeries, nil
}

// Fig22Run is one (system, metrics) outcome.
type Fig22Run struct {
	System   string
	MeanJCT  time.Duration
	Makespan time.Duration
}

// Fig22 regenerates Figure 22: average JCT and makespan of the elastic
// scheduler under the Ideal, Elan and S&R cost models.
func Fig22(w io.Writer, quick bool) ([]Fig22Run, error) {
	systems := []sched.System{sched.IdealSystem{}, sched.NewElanSystem(22), sched.NewSRSystem(22)}
	t := metrics.NewTable("Figure 22: E-BF scheduling under different systems",
		"System", "Mean JCT (min)", "Makespan (h)", "JCT vs Ideal")
	jobs, err := schedTrace(22, quick)
	if err != nil {
		return nil, err
	}
	var out []Fig22Run
	var idealJCT time.Duration
	for _, sys := range systems {
		cfg := sched.DefaultConfig(sched.ElasticBackfill, sys)
		if quick {
			cfg.Tick = 2 * time.Second
		}
		res, err := sched.Run(cfg, jobs)
		if err != nil {
			return nil, err
		}
		if sys.Name() == "Ideal" {
			idealJCT = res.MeanJCT
		}
		out = append(out, Fig22Run{System: sys.Name(), MeanJCT: res.MeanJCT, Makespan: res.Makespan})
		rel := "-"
		if idealJCT > 0 {
			rel = fmt.Sprintf("+%.1f%%", 100*(float64(res.MeanJCT)/float64(idealJCT)-1))
		}
		t.AddRow(sys.Name(), fmt.Sprintf("%.1f", res.MeanJCT.Minutes()),
			fmt.Sprintf("%.2f", res.Makespan.Hours()), rel)
	}
	t.Render(w)
	return out, nil
}
