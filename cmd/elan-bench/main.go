// Command elan-bench regenerates the paper's tables and figures by id.
//
// Usage:
//
//	elan-bench -exp fig15                  # one experiment
//	elan-bench -exp all                    # the full evaluation
//	elan-bench -list                       # list experiment ids
//	elan-bench -exp fig20 -quick           # short trace for a fast run
//	elan-bench -adjust-trace adjust.json   # trace one scaling adjustment
//
// Layer timings are `go test -bench` benchmarks in the package they time;
// the end-to-end benchmark is bench/.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	elan "github.com/elan-sys/elan"
	"github.com/elan-sys/elan/internal/experiment"
)

func main() {
	exp := flag.String("exp", "", "experiment id (or 'all')")
	list := flag.Bool("list", false, "list experiment ids")
	quick := flag.Bool("quick", false, "shrink workloads for a fast run")
	adjTrace := flag.String("adjust-trace", "",
		"write a Chrome trace-event JSON file of one live scale-out adjustment and exit")
	flag.Parse()
	if *adjTrace != "" {
		if err := writeAdjustTrace(*adjTrace, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "elan-bench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *list, *quick, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "elan-bench:", err)
		os.Exit(1)
	}
}

// writeAdjustTrace records the paper's Fig. 11 story as a trace: a fleet
// trains a few iterations, scales out 2→4, and trains a few more. The
// resulting JSON shows the adjustment as one cross-process tree — the
// scheduler's request, the joiners' ready reports, the apply span and its
// two state installs — next to the step spans it interrupts.
func writeAdjustTrace(path string, w io.Writer) error {
	rec := elan.NewTraceRecorder(nil, 0)
	const features, classes = 16, 8
	train, err := elan.GenDataset(11, 4096, features, classes)
	if err != nil {
		return err
	}
	fleet, err := elan.NewFleet(elan.FleetConfig{
		Dataset:    train,
		LayerSizes: []int{features, 32, classes},
		Workers:    2,
		TotalBatch: 64,
		LR:         0.02,
		Momentum:   0.9,
		Seed:       11,
		Tracer:     rec,
	})
	if err != nil {
		return err
	}
	defer fleet.Close()
	for i := 0; i < 5; i++ {
		if _, err := fleet.Step(); err != nil {
			return err
		}
	}
	if err := fleet.RequestScaleOut(2); err != nil {
		return err
	}
	admitted := 0 // steps from the request to the one that admits the joiners
	for fleet.NumWorkers() != 4 {
		if admitted++; admitted > 1000 {
			return fmt.Errorf("scale-out not admitted within %d steps", admitted-1)
		}
		if _, err := fleet.Step(); err != nil {
			return err
		}
	}
	for i := 0; i < 5; i++ {
		if _, err := fleet.Step(); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
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
	fmt.Fprintf(w, "scale-out admitted by step %d after the request; wrote %d spans to %s — open in ui.perfetto.dev\n",
		admitted, rec.Len(), path)
	return nil
}

func run(exp string, list, quick bool, w io.Writer) error {
	if list {
		fmt.Fprintln(w, strings.Join(experiment.IDs(), "\n"))
		return nil
	}
	if exp == "" {
		return fmt.Errorf("missing -exp (use -list to see ids)")
	}
	if exp == "all" {
		for _, id := range experiment.IDs() {
			fmt.Fprintf(w, "\n### %s ###\n", id)
			if err := experiment.Run(id, w, quick); err != nil {
				return fmt.Errorf("%s: %w", id, err)
			}
		}
		return nil
	}
	if err := experiment.Run(exp, w, quick); err != nil {
		if errors.Is(err, experiment.ErrUnknownID) {
			return fmt.Errorf("unknown experiment %q (use -list)", exp)
		}
		return err
	}
	return nil
}
