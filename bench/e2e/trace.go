package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// traceFold accumulates what the traced run's spans say, segment by
// segment: the recorder is drained between cycles, well under its cap, so
// no span is dropped however long the run is.
type traceFold struct {
	total, compute, comm, coord, stall time.Duration

	spans     int
	installMs []float64
	// bench.* spans: count and total per name; roundSelf is the part of
	// bench.round no child span covers — the driver's own overhead.
	benchCount map[string]int
	benchTotal map[string]time.Duration
	roundSelf  time.Duration
	last       []spanRecord // the most recent segment, written out at the end
}

func newTraceFold() *traceFold {
	return &traceFold{benchCount: map[string]int{}, benchTotal: map[string]time.Duration{}}
}

func (t *traceFold) drain(tel *telemetrySet) {
	spans := tel.rec.Snapshot()
	if len(spans) == 0 {
		return
	}
	t.last = spans
	t.spans += len(spans)
	total, compute, comm, coord, stall := attribTotals(spans)
	t.total += total
	t.compute += compute
	t.comm += comm
	t.coord += coord
	t.stall += stall
	rounds := map[uint64]time.Duration{}
	for _, s := range spans {
		switch {
		case s.Name == "worker.install_state":
			t.installMs = append(t.installMs, ms(s.Duration()))
		case s.Name == "bench.round":
			rounds[s.ID] += s.Duration()
		case strings.HasPrefix(s.Name, "bench."):
			rounds[s.Parent] -= s.Duration()
		}
		if strings.HasPrefix(s.Name, "bench.") {
			t.benchCount[s.Name]++
			t.benchTotal[s.Name] += s.Duration()
		}
	}
	for _, self := range rounds {
		t.roundSelf += self
	}
}

func (t *traceFold) share(part time.Duration) float64 {
	if t.total <= 0 {
		return 0
	}
	return 100 * float64(part) / float64(t.total)
}

// writeDump writes the last segment's spans where elan-trace -attrib can
// read them.
func (t *traceFold) writeDump(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, workload+".spans.json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriter(f)
	if err := writeSpans(bw, t.last); err != nil {
		f.Close()
		return "", err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return "", err
	}
	return path, f.Close()
}

// tracedRun is the second half of a -trace 1 run: the workload with the
// product's full telemetry attached and benchmark-side spans around every
// call into the fleet.
type tracedRun struct {
	d    *driver
	fold *traceFold
	dump string
}

func runTraced(w workload, seed int64, seconds float64, fixedCycles int, outDir string) (*tracedRun, error) {
	tel := newTelemetry()
	d, _, err := setUp(w, seed, tel, true, &yardstick{})
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	defer d.f.Close()
	d.yard = &yardstick{}
	tel.rec.Reset() // set-up's spans are not the run's
	fold := newTraceFold()
	drain := func() { fold.drain(tel) }
	if err := d.run(seconds, fixedCycles, drain); err != nil {
		return &tracedRun{d: d, fold: fold}, err
	}
	drain()
	tr := &tracedRun{d: d, fold: fold}
	if _, err := d.finish(); err != nil {
		return tr, err
	}
	tr.dump, err = fold.writeDump(outDir, w.name)
	return tr, err
}

// layerMetrics assembles every per-layer metric from the probes, the
// untraced run and the traced run.
func layerMetrics(w workload, probes probeResults, g *gatedRun, tr *tracedRun) map[string]float64 {
	m := map[string]float64{}
	for k, v := range probes {
		m[k] = v
	}
	d := g.d
	for k, v := range stepAndEventMetrics(d) {
		m[k] = v
	}
	stepP50 := m["worker.step_p50_ms"]
	// The Step that admits workers, less a plain Step at the worker count
	// it leaves behind.
	after := d.awayStepMs
	if w.delta < 0 {
		after = d.stepMs
	}
	m["worker.scale_out_excess_ms"] = median(d.ev["scale_out_pause"].values()) - median(after.values())
	m["worker.install_state_ms"] = median(tr.fold.installMs)
	m["worker.coord_skips"] = float64(tr.d.tel.counter("worker_coord_skips_total"))

	explained := m["data.batch_into_us"]/1e3 + m["nn.forward_ms"] + m["ddp.backward_allreduce_ms"] +
		m["nn.opt_step_ms"] + m["coord.coordinate_us"]/1e3
	if stepP50 > 0 {
		m["worker.step_residual_pct"] = 100 * (stepP50 - explained) / stepP50
		m["coord.overhead_share_pct"] = 100 * m["coord.coordinate_us"] / 1e3 / stepP50
	}

	m["telemetry.spans_per_step"] = float64(tr.fold.spans) / float64(max(tr.d.steps, 1))
	m["telemetry.attrib_compute_pct"] = tr.fold.share(tr.fold.compute)
	m["telemetry.attrib_comm_pct"] = tr.fold.share(tr.fold.comm)
	m["telemetry.attrib_coord_pct"] = tr.fold.share(tr.fold.coord)
	m["telemetry.attrib_stall_pct"] = tr.fold.share(tr.fold.stall)
	// Throughput with telemetry off and on, each corrected for what the
	// host did during its own run.
	if off := median(g.yard.rates(d.windows)); off > 0 {
		m["telemetry.trace_overhead_pct"] = 100 * (off - median(tr.d.yard.rates(tr.d.windows))) / off
	}

	for k, v := range runMetrics(w, g) {
		m[k] = v
	}
	return m
}

// stepAndEventMetrics are the step and event percentiles of a run, as
// measured: percentiles beyond the median are reported, never gated.
func stepAndEventMetrics(d *driver) map[string]float64 {
	steps := d.stepMs.values()
	m := map[string]float64{
		"worker.step_p50_ms": median(steps),
		"worker.step_p90_ms": percentile(steps, 90),
		"worker.step_p99_ms": percentile(steps, 99),
		"worker.step_n":      float64(len(steps)),
	}
	for _, e := range events {
		vs := d.ev[e].values()
		m["worker."+e+"_hi_ms"], m["worker."+e+"_hi_pct"] = hiPercentile(vs)
		m["worker."+e+"_n"] = float64(len(vs))
	}
	return m
}

// runMetrics are the process counters of an untraced run and what its
// yardstick saw of the host.
func runMetrics(w workload, g *gatedRun) map[string]float64 {
	d := g.d
	samples := float64(d.steps * w.totalBatch)
	m := map[string]float64{
		"run.gc_cycles":     float64(g.gcCycles),
		"run.heap_live_mb":  g.heapLiveMB,
		"run.final_loss":    g.finalLoss,
		"run.ops_attempted": float64(d.attempted),
		"run.ops_failed":    float64(d.failed),
	}
	m["host.calib_ms"], m["host.calib_spread_pct"] = g.yard.unitMs()
	if d.busy > 0 {
		windowSamples := samples
		if w.blockWindow {
			windowSamples = float64(d.cycles * w.blockSteps * w.totalBatch)
		}
		m["run.samples_per_s_mean"] = windowSamples / d.busy.Seconds()
	}
	if samples > 0 {
		m["run.cpu_s_per_ksample"] = g.cpu.Seconds() / (samples / 1e3)
		m["run.alloc_mb_per_kstep"] = float64(g.allocBytes) / (1 << 20) / (float64(d.steps) / 1e3)
	}
	return m
}

// budgetReport prints each end-to-end metric beside the layer rows it is
// built from, and the part of it those rows do not explain.
func budgetReport(out *strings.Builder, w workload, m map[string]float64, g *gatedRun, tr *tracedRun) {
	d := g.d
	step := m["worker.step_p50_ms"]
	fmt.Fprintf(out, "\n# budget: %s (GOMAXPROCS %d)\n", w.name, runtime.GOMAXPROCS(0))
	fmt.Fprintf(out, "samples_per_s %.1f 1/s = %d samples / worker.step_p50_ms %.3f ms, less stalls\n",
		median(d.windows.values()), w.totalBatch, step)
	row := func(name string, v float64) {
		fmt.Fprintf(out, "  %-28s %10.4f ms  %5.1f %% of step\n", name, v, 100*v/step)
	}
	row("data.batch_into_us", m["data.batch_into_us"]/1e3)
	row("nn.forward_ms", m["nn.forward_ms"])
	row("ddp.backward_allreduce_ms", m["ddp.backward_allreduce_ms"])
	fmt.Fprintf(out, "    of which nn.backward_ms %.4f, collective.allreduce_ms %.4f bare, %.0f %% of it hidden\n",
		m["nn.backward_ms"], m["collective.allreduce_ms"], m["ddp.overlap_hidden_pct"])
	row("nn.opt_step_ms", m["nn.opt_step_ms"])
	row("coord.coordinate_us", m["coord.coordinate_us"]/1e3)
	fmt.Fprintf(out, "  %-28s %10.4f ms  %5.1f %% of step (worker.step_residual_pct)\n",
		"residual", step*m["worker.step_residual_pct"]/100, m["worker.step_residual_pct"])

	n := max(w.delta, -w.delta)
	install, rebuild := m["worker.install_state_ms"], m["collective.group_rebuild_us"]/1e3
	event := func(name string, parts float64, formula string) {
		v := median(d.ev[name].values())
		fmt.Fprintf(out, "%s_ms %.4f = %s = %.4f, residual %.4f ms\n", name, v, formula, parts, v-parts)
	}
	away := median(d.awayStepMs.values())
	afterOut, afterIn := away, step
	if w.delta < 0 {
		afterOut, afterIn = step, away
	}
	event("scale_out_pause", float64(n)*install+rebuild+afterOut,
		fmt.Sprintf("%d x worker.install_state_ms %.4f + collective.group_rebuild_us %.4f ms + step at the new count %.4f", n, install, rebuild, afterOut))
	event("scale_in_pause", rebuild+afterIn,
		fmt.Sprintf("collective.group_rebuild_us %.4f ms + step at the new count %.4f", rebuild, afterIn))
	event("scale_out_admit", m["coord.adjust_cycle_us"]/1e3+median(d.ev["scale_out_pause"].values()),
		fmt.Sprintf("coord.adjust_cycle_us %.4f ms + scale_out_pause", m["coord.adjust_cycle_us"]/1e3))
	event("rejoin", 2*away+install+2*rebuild,
		fmt.Sprintf("2 steps %.4f + worker.install_state_ms %.4f + 2 x group rebuild %.4f", away, install, rebuild))
	event("am_recover", m["coord.recover_us"]/1e3+m["checkpoint.restore_ms"]+float64(w.workers+w.delta)*install+away,
		fmt.Sprintf("coord.recover_us %.4f ms + checkpoint.restore_ms %.4f + installs + step %.4f",
			m["coord.recover_us"]/1e3, m["checkpoint.restore_ms"], away))
	event("ckpt_save", m["checkpoint.save_ms"], fmt.Sprintf("checkpoint.save_ms %.4f + state export", m["checkpoint.save_ms"]))

	fmt.Fprintf(out, "traced run: %d spans over %d steps, attribution compute %.1f %% comm %.1f %% coord %.1f %% stall %.1f %%, overhead %.1f %% of samples_per_s\n",
		tr.fold.spans, tr.d.steps, m["telemetry.attrib_compute_pct"], m["telemetry.attrib_comm_pct"],
		m["telemetry.attrib_coord_pct"], m["telemetry.attrib_stall_pct"], m["telemetry.trace_overhead_pct"])
	names := make([]string, 0, len(tr.fold.benchCount))
	for name := range tr.fold.benchCount {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c, t := tr.fold.benchCount[name], tr.fold.benchTotal[name]
		fmt.Fprintf(out, "  %-28s n %6d  total %10.3f ms  mean %9.4f ms\n", name, c, ms(t), ms(t)/float64(c))
	}
	fmt.Fprintf(out, "  %-28s total %10.3f ms (bench.round minus its children: the driver's own time)\n",
		"bench.round self", ms(tr.fold.roundSelf))
	fmt.Fprintf(out, "transport.tcp_call_us %.2f us: predicted to move nothing — no Fleet path uses TCP until ROADMAP item 2\n",
		m["transport.tcp_call_us"])
	if tr.dump != "" {
		fmt.Fprintf(out, "spans of the last segment written to %s (read with elan-trace -attrib)\n", tr.dump)
	}
}
