// Package baseline implements the two systems Elan is evaluated against:
//
//   - Shutdown-&-Restart (S&R), the practice of Gandiva/Optimus-style
//     schedulers: on every adjustment the job checkpoints all training state
//     to the shared filesystem, shuts down, restarts with the new resource
//     configuration and reloads the checkpoint (Section V-B, Figure 10).
//     For scale-out and scale-in the shutdown/start/initialization of the
//     existing workers sits on the critical path; only migration can hide
//     the start of the destination workers.
//
//   - Litz-style executor context switching: a new-programming-model system
//     that over-decomposes the job into executors multiplexed on shared
//     GPUs. Elasticity is cheap but steady-state training pays for CPU<->GPU
//     context movement on every switch (Figure 16).
package baseline

import (
	"fmt"
	"math/rand"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
)

// SR models the Shutdown-&-Restart baseline.
type SR struct {
	Costs core.SystemCosts
	FS    checkpoint.FSModel
	rng   *rand.Rand
}

// NewSR constructs the baseline with the given calibrations.
func NewSR(costs core.SystemCosts, fs checkpoint.FSModel, seed int64) *SR {
	return &SR{Costs: costs, FS: fs, rng: rand.New(rand.NewSource(seed))}
}

// Adjust returns the training pause an S&R adjustment causes for the given
// model when changing from oldWorkers to newWorkers. It is the one model of
// an S&R pause: with Costs.JitterRel 0 its phases are their means. kind
// selects the procedure: migration hides the start/init of the destination
// workers (they boot while the job still trains), while scale-out and
// scale-in must restart the existing workers, putting shutdown + start +
// init on the critical path — the asymmetry the paper's Figure 15 exhibits.
func (s *SR) Adjust(kind coord.Kind, m models.Model, oldWorkers, newWorkers int) (core.AdjustmentReport, error) {
	if oldWorkers <= 0 || newWorkers <= 0 {
		return core.AdjustmentReport{}, fmt.Errorf("baseline: invalid worker counts %d -> %d",
			oldWorkers, newWorkers)
	}
	rep := core.AdjustmentReport{Kind: kind}
	gpu, cpu := m.GPUStateBytes(), m.CPUStateBytes

	addPhase := func(name string, d time.Duration) {
		rep.Breakdown = append(rep.Breakdown, core.Phase{
			Name: name, Duration: perfmodel.Jitter(s.rng, d, s.Costs.JitterRel),
		})
		rep.Pause += rep.Breakdown[len(rep.Breakdown)-1].Duration
	}

	addPhase("coordinate", s.Costs.CoordMean(oldWorkers))
	addPhase("checkpoint", s.FS.SaveTime(gpu, cpu))
	switch kind {
	case coord.Migrate:
		// Destination workers started and initialized while the source kept
		// training; record the hidden cost and pay only the load.
		var hidden time.Duration
		for i := 0; i < newWorkers; i++ {
			if t := s.Costs.StartInitTime(s.rng); t > hidden {
				hidden = t
			}
		}
		rep.HiddenStartInit = hidden
	case coord.ScaleOut, coord.ScaleIn:
		// Existing workers restart: everything on the critical path.
		addPhase("shutdown", s.Costs.ShutdownTime)
		addPhase("start", s.Costs.WorkerStart)
		addPhase("initialize", s.Costs.WorkerInit)
	default:
		return core.AdjustmentReport{}, fmt.Errorf("baseline: invalid kind %v", kind)
	}
	addPhase("load", s.FS.LoadTime(gpu, cpu, newWorkers))
	return rep, nil
}
