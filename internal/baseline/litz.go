package baseline

import (
	"fmt"
	"math"

	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
)

// LitzConfig calibrates the executor-based baseline.
type LitzConfig struct {
	// ExecutorsPerWorker is the over-decomposition factor (Litz-2, Litz-4).
	ExecutorsPerWorker int
	// PCIeBytesPerSec is the CPU<->GPU context movement bandwidth.
	PCIeBytesPerSec float64
	// AggBonusPerDoubling is the relative throughput gained per doubling of
	// the worker count from local gradient aggregation (the paper observes
	// throughput "goes up slightly" with more workers).
	AggBonusPerDoubling float64
	// BaseWorkers anchors the aggregation bonus.
	BaseWorkers int
}

// DefaultLitzConfig returns the calibration for Litz-N.
func DefaultLitzConfig(executors int) LitzConfig {
	return LitzConfig{
		ExecutorsPerWorker:  executors,
		PCIeBytesPerSec:     6e9,
		AggBonusPerDoubling: 0.06,
		BaseWorkers:         8,
	}
}

// Litz models the executor-based elastic training baseline.
type Litz struct {
	cfg  LitzConfig
	perf *perfmodel.Perf
}

// NewLitz validates the configuration and builds the model.
func NewLitz(cfg LitzConfig, perf *perfmodel.Perf) (*Litz, error) {
	if cfg.ExecutorsPerWorker < 1 {
		return nil, fmt.Errorf("baseline: executors per worker %d < 1", cfg.ExecutorsPerWorker)
	}
	if cfg.PCIeBytesPerSec <= 0 {
		return nil, fmt.Errorf("baseline: non-positive PCIe bandwidth")
	}
	if cfg.BaseWorkers <= 0 {
		cfg.BaseWorkers = 8
	}
	if perf == nil {
		perf = perfmodel.Default()
	}
	return &Litz{cfg: cfg, perf: perf}, nil
}

// SwapTimePerIteration returns the context-movement cost one training
// iteration pays: each of the E executors sharing the GPU is swapped out
// and in once per iteration, moving its full context (parameters, optimizer
// state and live activations) across PCIe in both directions.
func (l *Litz) SwapTimePerIteration(m models.Model) float64 {
	e := float64(l.cfg.ExecutorsPerWorker)
	perSwap := 2 * float64(m.SwapContextBytes) / l.cfg.PCIeBytesPerSec
	return e * perSwap
}

// RelativeThroughput returns Litz's training throughput relative to Elan
// for the same model and resources (the Figure 16 metric, in (0, 1]).
// perWorkerBatch is Elan's per-worker batch; Litz splits it across its
// executors, computing the same total work plus the swap overhead, minus a
// small local-aggregation bonus that grows with the worker count.
func (l *Litz) RelativeThroughput(m models.Model, nWorkers, perWorkerBatch int) (float64, error) {
	if nWorkers <= 0 || perWorkerBatch <= 0 {
		return 0, fmt.Errorf("baseline: invalid config N=%d bs=%d", nWorkers, perWorkerBatch)
	}
	elanIter, err := l.perf.IterTime(m, nWorkers, perWorkerBatch)
	if err != nil {
		return 0, err
	}
	litzIter := elanIter.Seconds() + l.SwapTimePerIteration(m)
	rel := elanIter.Seconds() / litzIter
	// Local gradient aggregation bonus.
	if nWorkers > l.cfg.BaseWorkers {
		doublings := math.Log2(float64(nWorkers) / float64(l.cfg.BaseWorkers))
		rel *= 1 + l.cfg.AggBonusPerDoubling*doublings
	}
	if rel > 1 {
		rel = 1
	}
	return rel, nil
}
