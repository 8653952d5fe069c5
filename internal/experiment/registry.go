package experiment

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one experiment into w; quick shrinks workloads for
// fast runs where the experiment supports it.
type Runner func(w io.Writer, quick bool) error

// Registry maps experiment ids (fig/table/ablation/scenario names) to their
// runners. cmd/elan-bench and cmd/elan-report both dispatch through it.
func Registry() map[string]Runner {
	wrap := func(f func(io.Writer)) Runner {
		return func(w io.Writer, _ bool) error { f(w); return nil }
	}
	return map[string]Runner{
		"table1": wrap(func(w io.Writer) { Table01(w) }),
		"table2": wrap(func(w io.Writer) { Table02(w) }),
		"fig1": func(w io.Writer, _ bool) error {
			_, err := Fig01(w)
			return err
		},
		"fig3": wrap(func(w io.Writer) { Fig03(w) }),
		"fig4": wrap(func(w io.Writer) { Fig04(w) }),
		"fig5": func(w io.Writer, quick bool) error {
			_, err := Fig05(w, quick)
			return err
		},
		"alg1": wrap(func(w io.Writer) { Fig06Demo(w) }),
		"fig8": wrap(func(w io.Writer) { Fig08(w) }),
		"fig9": func(w io.Writer, _ bool) error {
			_, err := Fig09(w)
			return err
		},
		"fig11": func(w io.Writer, _ bool) error {
			_, err := Fig11(w)
			return err
		},
		"fig12": func(w io.Writer, _ bool) error {
			_, err := Fig12(w)
			return err
		},
		"fig14": func(w io.Writer, _ bool) error {
			_, err := Fig14(w)
			return err
		},
		"fig15": func(w io.Writer, _ bool) error {
			_, err := Fig15(w)
			return err
		},
		"fig16": func(w io.Writer, _ bool) error {
			_, err := Fig16(w)
			return err
		},
		"fig17": wrap(func(w io.Writer) { Fig17(w) }),
		"fig18": wrap(func(w io.Writer) { Fig18(w) }),
		"fig19": func(w io.Writer, _ bool) error {
			_, err := Fig19(w)
			return err
		},
		"table4": func(w io.Writer, _ bool) error {
			_, err := Table04(w)
			return err
		},
		"fig20": func(w io.Writer, quick bool) error {
			runs := 3
			if quick {
				runs = 1
			}
			_, err := Fig20(w, runs, quick)
			return err
		},
		"fig21": func(w io.Writer, quick bool) error {
			_, _, err := Fig21(w, quick)
			return err
		},
		"fig22": func(w io.Writer, quick bool) error {
			_, err := Fig22(w, quick)
			return err
		},
		"ablation-replication": func(w io.Writer, _ bool) error {
			_, err := AblationReplication(w)
			return err
		},
		"ablation-coordination": func(w io.Writer, _ bool) error {
			_, err := AblationCoordination(w)
			return err
		},
		"ablation-progressive-lr": func(w io.Writer, _ bool) error {
			_, err := AblationProgressiveLR(w)
			return err
		},
		"ablation-data-semantics": func(w io.Writer, _ bool) error {
			_, err := AblationDataSemantics(w)
			return err
		},
		"ablation-async-timeline": func(w io.Writer, _ bool) error {
			_, err := AblationAsyncTimeline(w)
			return err
		},
		"straggler": func(w io.Writer, _ bool) error {
			_, err := StragglerScenario(w)
			return err
		},
		"spot": func(w io.Writer, _ bool) error {
			_, err := SpotScenario(w)
			return err
		},
	}
}

// IDs returns the registry keys in sorted order.
func IDs() []string {
	reg := Registry()
	out := make([]string, 0, len(reg))
	for id := range reg {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// ErrUnknownID is returned (wrapped) by Run for an id not in the registry.
var ErrUnknownID = errors.New("experiment: unknown id")

// Run dispatches one experiment by id.
func Run(id string, w io.Writer, quick bool) error {
	r, ok := Registry()[id]
	if !ok {
		return fmt.Errorf("%w %q", ErrUnknownID, id)
	}
	return r(w, quick)
}
