// Command elan-live runs real elastic training on the pure-Go substrate
// from the command line: it trains an MLP on a worker.Fleet of resident
// data-parallel agents and executes a schedule of elastic adjustments,
// printing loss/accuracy and verifying the data-parallel invariant after
// every adjustment.
//
// Usage:
//
//	elan-live -workers 2 -tbs 64 -iters 600 -schedule "200:out2,400:batch128"
//
// Schedule entries are iteration:action with actions out<N> (scale out by
// N), in<N> (scale in by N), batch<B> (set total batch to B with the
// progressive LR ramp). A scale action is a request that a later step
// applies; the schedule's next action waits until it has been.
//
// With -chaos the command instead replays a seeded randomized fault
// schedule (worker crashes/restarts, AM crash + recovery, partitions, drop
// bursts, stragglers) against a worker fleet on virtual time and prints the
// deterministic fault-event log ("fault " lines are byte-identical across
// runs with the same -chaos-seed) plus a convergence summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	elan "github.com/elan-sys/elan"
	"github.com/elan-sys/elan/internal/chaos"
)

type action struct {
	iter int
	verb string // out | in | batch
	arg  int
}

func parseSchedule(s string) ([]action, error) {
	if strings.TrimSpace(s) == "" {
		return nil, nil
	}
	var out []action
	for _, part := range strings.Split(s, ",") {
		bits := strings.SplitN(strings.TrimSpace(part), ":", 2)
		if len(bits) != 2 {
			return nil, fmt.Errorf("bad schedule entry %q (want iter:action)", part)
		}
		iter, err := strconv.Atoi(bits[0])
		if err != nil || iter < 0 {
			return nil, fmt.Errorf("bad iteration in %q", part)
		}
		act := bits[1]
		var verb string
		switch {
		case strings.HasPrefix(act, "out"):
			verb = "out"
			act = act[3:]
		case strings.HasPrefix(act, "in"):
			verb = "in"
			act = act[2:]
		case strings.HasPrefix(act, "batch"):
			verb = "batch"
			act = act[5:]
		default:
			return nil, fmt.Errorf("unknown action in %q", part)
		}
		arg, err := strconv.Atoi(act)
		if err != nil || arg <= 0 {
			return nil, fmt.Errorf("bad argument in %q", part)
		}
		out = append(out, action{iter: iter, verb: verb, arg: arg})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].iter < out[j].iter })
	return out, nil
}

// options bundles the run parameters.
type options struct {
	workers   int
	tbs       int
	iters     int
	lr        float64
	seed      int64
	schedule  string
	traceOut  string // Chrome trace-event JSON output path ("" = off)
	spansOut  string // raw span-record JSON output path ("" = off)
	debugAddr string // /metrics + /healthz listen address ("" = off)
	flightrec int    // flight-recorder ring capacity (0 = off)

	chaos       bool  // run the chaos harness instead of a training schedule
	chaosSeed   int64 // fault-schedule seed (not the model seed)
	chaosFaults int   // approximate number of faults to inject
}

func main() {
	var opts options
	flag.IntVar(&opts.workers, "workers", 2, "initial worker count")
	flag.IntVar(&opts.tbs, "tbs", 64, "initial total batch size")
	flag.IntVar(&opts.iters, "iters", 600, "training iterations")
	flag.Float64Var(&opts.lr, "lr", 0.02, "initial learning rate")
	flag.Int64Var(&opts.seed, "seed", 7, "run seed")
	flag.StringVar(&opts.schedule, "schedule", "", "adjustments, e.g. 200:out2,400:batch128")
	flag.StringVar(&opts.traceOut, "trace-out", "",
		"write a Chrome trace-event JSON file (load in Perfetto) covering the run")
	flag.StringVar(&opts.spansOut, "spans-out", "",
		"write raw span records as JSON (feed to elan-trace -attrib) and print the per-step time attribution")
	flag.StringVar(&opts.debugAddr, "debug-addr", "",
		"serve /metrics (Prometheus text) and /healthz on this address, e.g. localhost:9090")
	flag.IntVar(&opts.flightrec, "flightrec", 0,
		"attach an always-on flight recorder with a ring of this many records; chaos faults and crash paths dump it (0 = off)")
	flag.BoolVar(&opts.chaos, "chaos", false,
		"replay a seeded fault schedule against a worker fleet instead of training")
	flag.Int64Var(&opts.chaosSeed, "chaos-seed", 1, "fault schedule seed (chaos mode)")
	flag.IntVar(&opts.chaosFaults, "chaos-faults", 40, "approximate fault count (chaos mode)")
	flag.Parse()
	// Ctrl-C cancels the run context: training stops at the next step
	// boundary and the fleet, joiners still coming up included, closes
	// cleanly.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	runFn := run
	if opts.chaos {
		runFn = runChaos
	}
	if err := runFn(ctx, os.Stdout, opts); err != nil {
		fmt.Fprintln(os.Stderr, "elan-live:", err)
		os.Exit(1)
	}
}

// runChaos replays a seeded randomized fault schedule on virtual time. The
// "fault " lines are the deterministic artifact: byte-identical across runs
// with the same -chaos-seed and -chaos-faults. The summary line reflects
// runtime outcomes and may vary.
func runChaos(ctx context.Context, w io.Writer, opts options) error {
	sched := chaos.RandomSchedule(opts.chaosSeed, opts.chaosFaults, 4)
	cfg := chaos.Config{Schedule: sched, Seed: opts.seed}
	// With -flightrec the harness gets a flight ring plus a tracer feeding
	// it, so every fault freezes a dump of the spans just before impact.
	// The harness drives its own sim clock; the recorder only needs a time
	// source for construction, so a fresh sim at the same epoch does.
	var flight *elan.FlightRecorder
	if opts.flightrec > 0 {
		flight = elan.NewFlightRecorder(opts.flightrec)
		cfg.Flight = flight
		cfg.Tracer = elan.NewTraceRecorder(elan.NewSimClock(time.Unix(0, 0)), 0)
	}
	h, err := chaos.New(cfg)
	if err != nil {
		return err
	}
	defer h.Close()
	total := sched.Iters()
	fmt.Fprintf(w, "chaos: seed=%d faults=%d iters=%d workers=4 tbs=24\n",
		opts.chaosSeed, len(sched.Faults), total)
	for done := 0; done < total; {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted at iteration %d: %w", done, err)
		}
		n := total - done
		if n > 25 {
			n = 25
		}
		if err := h.Run(n); err != nil {
			return err
		}
		done += n
	}
	for _, line := range strings.Split(strings.TrimRight(chaos.FormatEvents(h.Events()), "\n"), "\n") {
		fmt.Fprintf(w, "fault %s\n", line)
	}
	rep := h.Report()
	fmt.Fprintf(w, "chaos: iterations=%d final-workers=%d consistent=%v loss=%.3f events=%d fault-errors=%d am-down=%v\n",
		rep.Iterations, rep.FinalWorkers, rep.Consistent, rep.FinalLoss,
		rep.Events, len(rep.FaultErrors), rep.AMDown)
	if len(rep.FaultErrors) > 0 {
		return fmt.Errorf("%d faults failed to apply, first: %s", len(rep.FaultErrors), rep.FaultErrors[0])
	}
	if !rep.Consistent {
		return fmt.Errorf("replicas inconsistent after chaos run")
	}
	// The flight dump is a postmortem artifact, not a determinism artifact:
	// its span interleaving varies with goroutine scheduling, so it prints
	// after (and never among) the byte-compared "fault " lines.
	if flight != nil {
		if reason, dump := flight.LastDump(); reason != "" {
			if err := elan.WriteFlightDump(w, reason, dump); err != nil {
				return err
			}
		}
		fmt.Fprintf(w, "flight: %d records through a %d-slot ring\n",
			flight.Total(), flight.Capacity())
	}
	return nil
}

func run(ctx context.Context, w io.Writer, opts options) error {
	actions, err := parseSchedule(opts.schedule)
	if err != nil {
		return err
	}
	// Telemetry is optional: when no flag asks for it the tracer stays
	// Nop and the instruments stay nil, so the training path is unchanged.
	var (
		rec    *elan.TraceRecorder
		reg    *elan.MetricsRegistry
		tracer elan.Tracer
		flight *elan.FlightRecorder
	)
	if opts.traceOut != "" || opts.spansOut != "" || opts.debugAddr != "" || opts.flightrec > 0 {
		rec = elan.NewTraceRecorder(nil, 0)
		reg = elan.NewMetricsRegistry()
		tracer = rec
	}
	if opts.flightrec > 0 {
		flight = elan.NewFlightRecorder(opts.flightrec)
		rec.SetFlightRecorder(flight)
	}
	if opts.debugAddr != "" {
		srv, err := elan.NewTelemetryServer(opts.debugAddr, reg)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintf(w, "debug: serving /metrics and /healthz on http://%s\n", srv.Addr())
	}
	const features, classes = 16, 8
	train, err := elan.GenDataset(opts.seed, 8192, features, classes)
	if err != nil {
		return err
	}
	test, err := elan.GenDataset(opts.seed+1, 2048, features, classes)
	if err != nil {
		return err
	}
	fleet, err := elan.NewFleet(elan.FleetConfig{
		Dataset:    train,
		LayerSizes: []int{features, 32, classes},
		Workers:    opts.workers,
		TotalBatch: opts.tbs,
		LR:         opts.lr,
		Momentum:   0.9,
		Seed:       opts.seed,
		Tracer:     tracer,
		Metrics:    reg,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()

	report := func(tag string) error {
		loss, acc, err := fleet.Evaluate(test)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%-18s iter %5d workers %2d tbs %5d lr %.4f loss %.3f acc %5.1f%% consistent=%v\n",
			tag, fleet.Iteration(), fleet.NumWorkers(), fleet.TotalBatch(), fleet.LR(),
			loss, 100*acc, fleet.ReplicasConsistent())
		return nil
	}
	if err := report("start"); err != nil {
		return err
	}
	// A scale action is a request; the Steps that follow train on while the
	// joiners come up, and the one whose coordination finds them ready (or
	// finds the scale-in) applies it. The schedule waits for that before its
	// next action.
	var (
		next      int
		pending   *action
		want      int // worker count once pending is applied
		requested int // iteration of pending's request
	)
	for i := 0; i < opts.iters; i++ {
		for pending == nil && next < len(actions) && actions[next].iter <= i {
			a := actions[next]
			next++
			var aerr error
			switch a.verb {
			case "out":
				aerr = fleet.RequestScaleOut(a.arg)
				want = fleet.NumWorkers() + a.arg
			case "in":
				aerr = fleet.RequestScaleIn(a.arg)
				want = fleet.NumWorkers() - a.arg
			case "batch":
				aerr = fleet.SetTotalBatch(a.arg, 40, true)
			}
			if aerr != nil {
				return fmt.Errorf("iteration %d action %s%d: %w", i, a.verb, a.arg, aerr)
			}
			if a.verb != "batch" {
				pending, requested = &a, i
			} else if err := report(fmt.Sprintf("after %s%d", a.verb, a.arg)); err != nil {
				return err
			}
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("interrupted at iteration %d: %w", i, err)
		}
		if _, err := fleet.Step(); err != nil {
			return err
		}
		if pending != nil && fleet.NumWorkers() == want {
			fmt.Fprintf(w, "%-18s applied by step %d after the request\n",
				fmt.Sprintf("%s%d timing", pending.verb, pending.arg), i+1-requested)
			if err := report(fmt.Sprintf("after %s%d", pending.verb, pending.arg)); err != nil {
				return err
			}
			pending = nil
		}
		if (i+1)%200 == 0 {
			if err := report("progress"); err != nil {
				return err
			}
		}
	}
	if pending != nil {
		fmt.Fprintf(w, "%-18s still pending after %d steps\n",
			fmt.Sprintf("%s%d", pending.verb, pending.arg), opts.iters-requested)
	}
	if err := report("final"); err != nil {
		return err
	}
	if opts.traceOut != "" {
		f, err := os.Create(opts.traceOut)
		if err != nil {
			return err
		}
		if err := elan.WriteChromeTrace(f, rec.Snapshot()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "trace: wrote %d spans (%d dropped) to %s — open in ui.perfetto.dev\n",
			rec.Len(), rec.Dropped(), opts.traceOut)
	}
	if opts.spansOut != "" {
		spans := rec.Snapshot()
		f, err := os.Create(opts.spansOut)
		if err != nil {
			return err
		}
		if err := elan.WriteSpans(f, spans); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "spans: wrote %d records to %s — inspect with elan-trace -attrib\n",
			len(spans), opts.spansOut)
		// The attribution the file supports, printed right away: where the
		// run's step time went and which ranks straggled.
		a := elan.Attribute(spans)
		a.Publish(reg)
		if err := elan.WriteAttribution(w, a); err != nil {
			return err
		}
	}
	if flight != nil {
		fmt.Fprintf(w, "flight: %d records through a %d-slot ring\n",
			flight.Total(), flight.Capacity())
	}
	return nil
}
