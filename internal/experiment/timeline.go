package experiment

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
	"github.com/elan-sys/elan/internal/transport"
	"github.com/elan-sys/elan/internal/worker"
)

// AblationAsyncTimeline is the timeline counterpart of the coordination
// ablation: one scale-out runs on a real worker.Fleet on virtual time twice,
// once with the asynchronous coordination mechanism and once with a
// synchronous barrier, and the resulting training pauses and iteration counts
// are compared. Unlike the closed-form version, the pause comes out of the
// fleet's own protocol: the request, each joiner's report after its
// start+init, the coordination that admits them, and the state installs.
func AblationAsyncTimeline(w io.Writer) (*metrics.Table, error) {
	t := metrics.NewTable("Ablation: async vs sync coordination (live worker.Fleet on clock.Sim, ResNet-50 8->16)",
		"Mode", "Iterations in 2 min", "Training pause", "Request->done latency")
	for _, synchronous := range []bool{false, true} {
		res, err := runTimeline(synchronous)
		if err != nil {
			return nil, err
		}
		mode := "asynchronous"
		if synchronous {
			mode = "synchronous"
		}
		t.AddRow(mode, res.Iterations, fmtDur(res.Pause), res.Latency.Round(time.Millisecond).String())
	}
	t.Render(w)
	fmt.Fprintln(w, "both modes wait ~30s for worker start+init; only the synchronous one stops training for it.")
	return t, nil
}

// timelineResult is what one timeline run measured, in virtual time.
type timelineResult struct {
	// Iterations is the number of Steps completed within the horizon.
	Iterations int
	// Pause is the time training stood still: every coordination, the
	// admitting Step's adjustment and, when synchronous, the wait for the
	// joiners.
	Pause time.Duration
	// Latency runs from the request to the end of the admitting Step's
	// adjustment.
	Latency time.Duration
	// StepsWhileStarting counts the Steps between the request and the
	// admitting Step.
	StepsWhileStarting int
}

// runTimeline trains a tiny MLP on a worker.Fleet whose clock is a frozen
// clock.Sim, and charges each Step the virtual time a ResNet-50 iteration
// (perfmodel) and a coordination round (core.SystemCosts) would take on the
// testbed, advancing the clock only between Fleet calls. At 10 s it requests
// 8 -> 16 workers; each joiner's report waits on its sampled start+init time
// (FleetConfig.StartInit). The Step that admits the joiners costs core's
// Elan pause in place of the coordination round. The
// asynchronous run keeps stepping until the last joiner's deadline has passed;
// the synchronous one stops at the request and charges the whole wait as
// pause. Either way, runTimeline reads the AM over the fleet's bus until it is
// Ready before the admitting Step, so every run takes the same Steps.
func runTimeline(synchronous bool) (timelineResult, error) {
	const (
		workers, joiners = 8, 8
		totalBatch       = 256
		seed             = 8
		requestAt        = 10 * time.Second
		horizon          = 2 * time.Minute
	)
	var res timelineResult
	m, perf, costs := models.ResNet50(), perfmodel.Default(), core.DefaultSystemCosts()
	rng := rand.New(rand.NewSource(seed))
	ds, err := data.GenGaussianMixture(seed, 1024, 4, 3)
	if err != nil {
		return res, err
	}
	sim := clock.NewSim(time.Time{})
	busCfg := transport.DefaultBusConfig()
	busCfg.Clock = sim
	bus := transport.NewBus(busCfg)
	defer bus.Close()
	// ready is the last joiner's start+init deadline, in elapsed virtual time.
	var ready time.Duration
	f, err := worker.NewFleet(worker.FleetConfig{
		Dataset: ds, LayerSizes: []int{4, 8, 3}, Workers: workers, TotalBatch: totalBatch,
		LR: 0.05, Momentum: 0.9, Seed: seed, Bus: bus, Clock: sim, Cluster: newCluster(),
		StartInit: func() time.Duration {
			d := costs.StartInitTime(rng)
			ready = max(ready, sim.Elapsed()+d)
			return d
		},
	})
	if err != nil {
		return res, err
	}
	defer f.Close()
	am, err := coord.NewClient(bus, "timeline", "fleet-am")
	if err != nil {
		return res, err
	}
	defer am.Close()

	requested, pending := false, false
	var requestedAt time.Duration
	for {
		now := sim.Elapsed()
		if !requested && now >= requestAt {
			if err := f.RequestScaleOut(joiners); err != nil {
				return res, err
			}
			requested, pending, requestedAt = true, true, now
		}
		admit := pending && (synchronous || now >= ready)
		if admit {
			if synchronous {
				res.Pause += ready - now
				sim.Advance(ready - now)
			}
			if err := awaitReady(am); err != nil {
				return res, err
			}
		}
		n := f.NumWorkers()
		var cost time.Duration
		if admit {
			// The fleet reserves its GPUs in tree order, founders first:
			// the canonical placement core prices the adjustment on.
			rep, err := costs.AdjustInTreeOrder(rng, coord.ScaleOut, m, n, n+joiners)
			if err != nil {
				return res, err
			}
			n, cost = n+joiners, rep.Pause
		} else {
			cost = costs.CoordTime(rng, n)
		}
		iter, err := perf.IterTime(m, n, totalBatch/n)
		if err != nil {
			return res, err
		}
		if sim.Elapsed()+cost+iter > horizon {
			return res, nil
		}
		if _, err := f.Step(); err != nil {
			return res, err
		}
		if got := f.NumWorkers(); got != n {
			return res, fmt.Errorf("experiment: %d workers after step %d, want %d", got, res.Iterations, n)
		}
		res.Pause += cost
		switch {
		case admit:
			pending = false
			res.Latency = sim.Elapsed() + cost - requestedAt
		case pending:
			res.StepsWhileStarting++
		}
		sim.Advance(cost + iter)
		res.Iterations++
	}
}

// awaitReady polls the AM, in wall time, until every joiner has reported.
func awaitReady(am *coord.Client) error {
	wall := clock.Wall{}
	deadline := wall.Now().Add(10 * time.Second)
	for {
		st, err := am.AMState()
		if err == nil && st.State == coord.Ready {
			return nil
		}
		if wall.Now().After(deadline) {
			return fmt.Errorf("experiment: joiners never reported ready: %+v, %v", st, err)
		}
		<-wall.After(time.Millisecond)
	}
}
