// Command e2e is the repository's benchmark: it drives one real Fleet job
// per workload through the public elan API — AM over the bus, the
// store-persisted state machine, the ddp reducer, collectives, delta
// checkpoints — and prints every metric by name with its unit, checks the
// outputs and counts failed operations against attempted ones.
//
//	e2e -workload <name> -seed <n> -seconds <s> -trace 0   gated end-to-end metrics
//	e2e -workload <name> -seed <n> -seconds <s> -trace 1   per-layer metrics (-layers is the same)
//	e2e -workload all ...                                   one fresh child process per workload
//	e2e -aa K                                               two alternating sets of K runs per workload
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. See bench/README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 27

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	quick    bool
	outDir   string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the driver of the benchmark reads.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// report is a finished run: the result line, the readable text before it,
// and what the smoke test compares between runs.
type report struct {
	result
	text      string
	ops       []string
	firstLoss float64 // the untrained model's first step: fixed by the seed alone
}

func main() {
	var o options
	var trace, aa int
	var layers bool
	flag.StringVar(&o.workload, "workload", "all", "workload name, or all")
	flag.Int64Var(&o.seed, "seed", 1, "seeds dataset generation and model initialization")
	flag.Float64Var(&o.seconds, "seconds", defaultSeconds, "how long to measure")
	flag.IntVar(&trace, "trace", 0, "0: gated end-to-end metrics; 1: per-layer metrics from probes and a traced run")
	flag.BoolVar(&layers, "layers", false, "same as -trace 1")
	flag.BoolVar(&o.quick, "quick", false, "toy counts, for the smoke test")
	flag.StringVar(&o.outDir, "out", "bench/out", "directory for span dumps")
	flag.IntVar(&aa, "aa", 0, "run K alternating A and B sets of every workload and print the A/A table")
	flag.Parse()
	o.trace = layers || trace != 0

	var err error
	switch {
	case aa > 0:
		err = runAA(aa, o)
	case o.workload == "all":
		err = runAll(o)
	default:
		var rep *report
		rep, err = runChild(o)
		if rep != nil {
			fmt.Print(rep.text)
			if line, jerr := json.Marshal(rep.result); jerr == nil && len(rep.Metrics) > 0 {
				fmt.Println(string(line))
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2e:", err)
		os.Exit(1)
	}
}

// childArgs are the flags that reproduce o in a child process.
func childArgs(o options, workload string, seed int64) []string {
	args := []string{"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds), "-out", o.outDir}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	if o.quick {
		args = append(args, "-quick")
	}
	return args
}

// execChild runs one workload in a fresh process, so set-up time and peak
// memory are that workload's own, and returns its output and result line.
func execChild(o options, workload string, seed int64) (string, *result, error) {
	exe, err := os.Executable()
	if err != nil {
		return "", nil, err
	}
	cmd := exec.Command(exe, childArgs(o, workload, seed)...)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return string(out), nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return string(out), nil, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return string(out), &res, nil
}

func runAll(o options) error {
	var errs []error
	for _, w := range workloads {
		out, _, err := execChild(o, w.name, o.seed)
		fmt.Print(out)
		if err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// setupsPerRun is how many times a gated run sets up; setup_s is their
// median.
const setupsPerRun = 3

// runChild runs one workload in this process.
func runChild(o options) (*report, error) {
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	fixedCycles, setups, probes := 0, setupsPerRun, fullProbes
	if o.quick {
		w, fixedCycles, setups, probes = w.quick(), 2, 1, quickProbes
	} else {
		warmHost(time.Second)
	}
	if o.trace {
		return runLayers(o, w, fixedCycles, probes)
	}

	g, err := runGated(w, o.seed, o.seconds, setups, fixedCycles)
	if g == nil {
		return nil, err
	}
	d := g.d
	// Every timing is divided by the slowdown the yardstick measured
	// around the moment it was taken, every rate multiplied: what the run
	// would have read on the nominal host. Memory is as measured.
	peak, _ := processUsage()
	raw := map[string]float64{"setup_s": median(g.setups.values()), "samples_per_s": median(d.windows.values()), "peak_rss_mb": peak}
	values := map[string]float64{
		"setup_s":       median(g.setupYard.times(g.setups)),
		"samples_per_s": median(g.yard.rates(d.windows)),
		"peak_rss_mb":   peak,
	}
	for _, e := range events {
		raw[e+"_ms"] = median(d.ev[e].values())
		values[e+"_ms"] = median(g.yard.times(*d.ev[e]))
	}
	rep := newReport(d, err)
	var text strings.Builder
	fmt.Fprintf(&text, "# %s seed %d: %d cycles, %d steps in %.1f s; admission took %.0f steps (median), %.0f at most\n",
		w.name, o.seed, d.cycles, d.steps, o.seconds, median(d.admitSteps), percentile(d.admitSteps, 100))
	unit, spread := g.yard.unitMs()
	fmt.Fprintf(&text, "# yardstick: %d units in the timed phase, median %.3f ms (nominal %.1f), spread %.0f %%\n",
		len(g.yard.units), unit, yardArithNominalMs+yardMemNominalMs, spread)
	for _, def := range endToEnd {
		v := values[def.name]
		rep.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(&text, "%-22s %14.4f %-4s (as measured %14.4f; %s is better, bound %.0f %%)\n",
			def.name, v, def.unit, raw[def.name], def.better, 100*def.bound)
		if v <= 0 && err == nil {
			err = fmt.Errorf("metric %s is %v", def.name, v)
		}
	}
	// What the gated run measured besides, unbounded: step and event
	// percentiles, process counters, the host's calibration.
	info := runMetrics(w, g)
	for k, v := range stepAndEventMetrics(d) {
		info[k] = v
	}
	for _, def := range perLayer {
		if v, ok := info[def.name]; ok {
			fmt.Fprintf(&text, "%-34s %14.4f %s\n", def.name, v, def.unit)
		}
	}
	rep.text = text.String()
	rep.Correct = rep.Correct && err == nil
	return rep, err
}

func newReport(d *driver, err error) *report {
	rep := &report{ops: d.ops, firstLoss: d.firstLoss}
	rep.result = result{
		Correct:   err == nil && d.failed == 0,
		Attempted: d.attempted,
		Failed:    d.failed,
		Metrics:   map[string]metricValue{},
	}
	return rep
}

// runLayers is a -trace 1 run: the probes, a short untraced run, and a
// traced run of the same script.
func runLayers(o options, w workload, fixedCycles int, probes probeBudget) (*report, error) {
	ds, err := genDataset(o.seed, w.rows, w.layers[0], w.layers[len(w.layers)-1])
	if err != nil {
		return nil, err
	}
	probed, err := runProbes(w, o.seed, ds, probes)
	if err != nil {
		return nil, fmt.Errorf("probes: %w", err)
	}
	// Telemetry off and fully on, same script, the time left split
	// between them.
	off := w
	off.telemetry = false
	each := 0.35 * o.seconds
	g, err := runGated(off, o.seed, each, 1, fixedCycles)
	if g == nil {
		return nil, err
	}
	if err != nil {
		return newReport(g.d, err), err
	}
	tr, err := runTraced(w, o.seed, each, fixedCycles, o.outDir)
	if tr == nil {
		return nil, err
	}
	d := g.d
	d.attempted += tr.d.attempted
	d.failed += tr.d.failed
	rep := newReport(d, err)
	if err != nil {
		return rep, err
	}
	m := layerMetrics(w, probed, g, tr)
	var text strings.Builder
	fmt.Fprintf(&text, "# %s seed %d, layers: probes, %d untraced and %d traced cycles\n", w.name, o.seed, d.cycles, tr.d.cycles)
	for _, def := range perLayer {
		v, ok := m[def.name]
		if !ok {
			return rep, fmt.Errorf("layer metric %s was not measured", def.name)
		}
		rep.Metrics[def.name] = metricValue{Value: v, Unit: def.unit}
		fmt.Fprintf(&text, "%-34s %16.4f %s\n", def.name, v, def.unit)
	}
	budgetReport(&text, w, m, g, tr)
	rep.text = text.String()
	return rep, nil
}
