// Package core is the simulated Elan job: it ties the hybrid scaling
// mechanism, the concurrent IO-free replication planner, the asynchronous
// coordination protocol and the data-consistency machinery into an elastic
// job abstraction with the 5-step adjustment procedure of Section II
// (request, report, coordinate, state replication, state adjustment).
//
// Job is driven by the calibrated cost models and the simulation clock — it
// is what the paper's timing experiments (Figures 14 and 15) run on. Real
// training, with genuine state replication and group reconstruction, runs on
// worker.Fleet; the accuracy experiments (Figure 5, the progressive-LR
// ablation) use it.
package core

import (
	"math/rand"
	"time"

	"github.com/elan-sys/elan/internal/perfmodel"
)

// SystemCosts calibrates the fixed costs of the training system that are
// not bulk data movement. Values approximate the paper's testbed (PyTorch
// 1.3 on 1080Ti with NCCL); the experiments depend on their order of
// magnitude, not their exact values: worker start + initialization is tens
// of seconds (Figure 11), coordination is sub-millisecond, communicator
// reconstruction is sub-second.
type SystemCosts struct {
	// WorkerStart is the time to launch a worker process on an allocated
	// GPU (scheduler placement, container start, process exec).
	WorkerStart time.Duration
	// WorkerInit is runtime initialization: CUDA context, NCCL, framework
	// import, model build. This is the dominant term S&R pays on its
	// critical path and Elan hides (Section V-B).
	WorkerInit time.Duration
	// ShutdownTime tears a worker down gracefully.
	ShutdownTime time.Duration
	// GroupReconstructBase and GroupReconstructPerWorker model rebuilding
	// the collective communicator after membership changes.
	GroupReconstructBase      time.Duration
	GroupReconstructPerWorker time.Duration
	// CoordBase and CoordPerWorker model one coordination round between the
	// AM and all existing workers.
	CoordBase      time.Duration
	CoordPerWorker time.Duration
	// Repartition is the data-consistency fix-up (serial semantics: O(1)).
	Repartition time.Duration
	// JitterRel is the relative stddev applied to all sampled durations so
	// repeated measurements produce realistic error bars.
	JitterRel float64
}

// DefaultSystemCosts returns the calibration used by all experiments.
func DefaultSystemCosts() SystemCosts {
	return SystemCosts{
		WorkerStart:               8 * time.Second,
		WorkerInit:                22 * time.Second,
		ShutdownTime:              2 * time.Second,
		GroupReconstructBase:      350 * time.Millisecond,
		GroupReconstructPerWorker: 6 * time.Millisecond,
		CoordBase:                 120 * time.Microsecond,
		CoordPerWorker:            3 * time.Microsecond,
		Repartition:               20 * time.Millisecond,
		JitterRel:                 0.06,
	}
}

// sample jitters d with the configured relative stddev using rng.
func (c SystemCosts) sample(rng *rand.Rand, d time.Duration) time.Duration {
	return perfmodel.Jitter(rng, d, c.JitterRel)
}

// StartInitTime samples the start+initialization time of one new worker.
func (c SystemCosts) StartInitTime(rng *rand.Rand) time.Duration {
	return c.sample(rng, c.WorkerStart) + c.sample(rng, c.WorkerInit)
}

// CoordMean is the unjittered time of one coordination round across
// nWorkers.
func (c SystemCosts) CoordMean(nWorkers int) time.Duration {
	return c.CoordBase + time.Duration(nWorkers)*c.CoordPerWorker
}

// CoordTime samples one coordination round across nWorkers.
func (c SystemCosts) CoordTime(rng *rand.Rand, nWorkers int) time.Duration {
	return c.sample(rng, c.CoordMean(nWorkers))
}

// GroupReconstructTime samples communicator reconstruction for nWorkers.
func (c SystemCosts) GroupReconstructTime(rng *rand.Rand, nWorkers int) time.Duration {
	return c.sample(rng, c.GroupReconstructBase+time.Duration(nWorkers)*c.GroupReconstructPerWorker)
}
