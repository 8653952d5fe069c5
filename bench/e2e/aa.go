package main

import (
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
)

// quartiles returns the first and third quartile of xs the way Python's
// statistics.quantiles(xs, n=4) does (exclusive method), which is what the
// benchmark's driver computes its spreads with.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		return median(s), median(s)
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// runAA runs two alternating sets, A and B, of k runs of every workload
// on the same code, each run with another seed, and prints per gated pair
// what the driver will compute: each set's median and spread (quartile
// distance over median), the shift between the medians against the
// bound, and the farthest any single run strayed from its set's median.
func runAA(k int, o options) error {
	type series map[string][]float64 // metric -> one value per run
	sets := [2]map[string]series{{}, {}}
	var errs []error
	start := now()
	for i := 0; i < k; i++ {
		for set := 0; set < 2; set++ {
			for _, w := range workloads {
				seed := int64(1 + i + set*k)
				_, res, err := execChild(o, w.name, seed)
				if err != nil {
					errs = append(errs, err)
					continue
				}
				if res.Failed > 0 || !res.Correct {
					errs = append(errs, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed, res.Failed, res.Attempted))
				}
				if sets[set][w.name] == nil {
					sets[set][w.name] = series{}
				}
				for name, v := range res.Metrics {
					sets[set][w.name][name] = append(sets[set][w.name][name], v.Value)
				}
				fmt.Fprintf(os.Stderr, "aa: run %d/%d set %c %s seed %d done at %.0f s\n",
					i+1, k, 'A'+rune(set), w.name, seed, since(start).Seconds())
			}
		}
	}

	fmt.Printf("# A/A: two sets of %d runs of the same code, alternating, each run another seed\n\n", k)
	fmt.Printf("%.0f s measured per run, GOMAXPROCS %d, wall time %.0f s. Spread is the distance between\n", o.seconds, runtime.GOMAXPROCS(0), since(start).Seconds())
	fmt.Printf("the quartiles over the median (Python's `statistics.quantiles(v, n=4)`); shift is how much\n")
	fmt.Printf("worse set B's median is than set A's; stray is the farthest single run from its set's median.\n\n")
	fmt.Printf("| workload | metric | median A | median B | shift | spread A | spread B | max stray | bound | verdict |\n")
	fmt.Printf("|---|---|---:|---:|---:|---:|---:|---:|---:|---|\n")
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	for _, w := range workloads {
		for _, def := range defs {
			a, b := sets[0][w.name][def.name], sets[1][w.name][def.name]
			if len(a) == 0 || len(b) == 0 {
				continue
			}
			ma, mb := median(a), median(b)
			shift := (mb - ma) / ma
			if def.better == "higher" {
				shift = -shift
			}
			spread := func(xs []float64) float64 {
				q1, q3 := quartiles(xs)
				return (q3 - q1) / median(xs)
			}
			stray := 0.0
			for _, set := range [][]float64{a, b} {
				m := median(set)
				for _, v := range set {
					stray = max(stray, math.Abs(v-m)/m)
				}
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case def.bound == 0:
				verdict = "ungated"
			case math.Abs(shift) > def.bound || (def.name != "setup_s" && max(sa, sb) > def.bound):
				verdict = "FAIL"
			case math.Abs(shift) > def.bound/2 || max(sa, sb) > def.bound/3:
				verdict = "loose"
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f %% | %.1f %% | %.1f %% | %.1f %% | %.0f %% | %s |\n",
				w.name, def.name, ma, mb, 100*shift, 100*sa, 100*sb, 100*stray, 100*def.bound, verdict)
		}
	}
	return errors.Join(errs...)
}
