package core

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
	"github.com/elan-sys/elan/internal/replication"
	"github.com/elan-sys/elan/internal/scaling"
	"github.com/elan-sys/elan/internal/topology"
)

// Job is a simulated elastic data-parallel training job managed by Elan.
// Its timing is produced by the calibrated cost models, which lets the
// adjustment-performance experiments run thousands of adjustments in
// milliseconds of wall time.
type Job struct {
	Model      models.Model
	Cluster    *topology.Cluster
	Perf       *perfmodel.Perf
	Costs      SystemCosts
	Mech       *scaling.Mechanism
	Workers    []topology.GPUID
	TotalBatch int
	LR         float64
	// CoordInterval is how many iterations pass between coordinations.
	CoordInterval int

	rng  *rand.Rand
	iter int64
}

// JobConfig constructs a Job.
type JobConfig struct {
	Model         models.Model
	Cluster       *topology.Cluster
	Perf          *perfmodel.Perf
	Costs         SystemCosts
	Mech          *scaling.Mechanism
	Workers       []topology.GPUID
	TotalBatch    int
	LR            float64
	CoordInterval int
	Seed          int64
}

// NewJob validates the configuration and builds a Job.
func NewJob(cfg JobConfig) (*Job, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("core: nil cluster")
	}
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("core: job needs at least one worker")
	}
	if cfg.TotalBatch <= 0 || cfg.TotalBatch%len(cfg.Workers) != 0 {
		return nil, fmt.Errorf("core: total batch %d not divisible by %d workers",
			cfg.TotalBatch, len(cfg.Workers))
	}
	if cfg.LR <= 0 {
		return nil, fmt.Errorf("core: non-positive learning rate %v", cfg.LR)
	}
	if cfg.Perf == nil {
		cfg.Perf = perfmodel.Default()
	}
	if cfg.Mech == nil {
		m, err := scaling.New(scaling.Config{Perf: cfg.Perf})
		if err != nil {
			return nil, err
		}
		cfg.Mech = m
	}
	if cfg.CoordInterval <= 0 {
		cfg.CoordInterval = 1
	}
	if cfg.Costs == (SystemCosts{}) {
		cfg.Costs = DefaultSystemCosts()
	}
	workers := append([]topology.GPUID(nil), cfg.Workers...)
	return &Job{
		Model:         cfg.Model,
		Cluster:       cfg.Cluster,
		Perf:          cfg.Perf,
		Costs:         cfg.Costs,
		Mech:          cfg.Mech,
		Workers:       workers,
		TotalBatch:    cfg.TotalBatch,
		LR:            cfg.LR,
		CoordInterval: cfg.CoordInterval,
		rng:           rand.New(rand.NewSource(cfg.Seed)),
	}, nil
}

// NumWorkers returns the current worker count.
func (j *Job) NumWorkers() int { return len(j.Workers) }

// IterTime returns the current per-iteration time (without coordination).
func (j *Job) IterTime() (time.Duration, error) {
	return j.Perf.IterTime(j.Model, len(j.Workers), j.TotalBatch/len(j.Workers))
}

// Throughput returns the current training throughput in samples/sec,
// accounting for the amortized coordination overhead.
func (j *Job) Throughput() (float64, error) {
	it, err := j.IterTime()
	if err != nil {
		return 0, err
	}
	coordPer := time.Duration(float64(j.Costs.CoordMean(len(j.Workers))) / float64(j.CoordInterval))
	return float64(j.TotalBatch) / (it + coordPer).Seconds(), nil
}

// RuntimeOverhead returns the relative throughput loss due to elasticity
// maintenance (the Figure 14 metric): coordination time divided by the
// iteration time, amortized over the coordination interval.
func (j *Job) RuntimeOverhead() (float64, error) {
	it, err := j.IterTime()
	if err != nil {
		return 0, err
	}
	per := float64(j.Costs.CoordMean(len(j.Workers))) / float64(j.CoordInterval)
	return per / float64(it), nil
}

// AdjustmentReport describes one resource adjustment.
type AdjustmentReport struct {
	Kind coord.Kind
	// Pause is the time training stood still — the paper's Figure 15
	// metric. For Elan this excludes new-worker start/init (hidden by the
	// asynchronous coordination mechanism).
	Pause time.Duration
	// HiddenStartInit is the start+initialization time that overlapped with
	// training (zero for baselines that pay it on the critical path).
	HiddenStartInit time.Duration
	// Breakdown itemizes the pause.
	Breakdown []Phase
	// Decision records what the hybrid scaling mechanism chose.
	Decision scaling.Decision
}

// Phase is one component of an adjustment pause.
type Phase struct {
	Name     string
	Duration time.Duration
}

func (r *AdjustmentReport) add(name string, d time.Duration) {
	r.Breakdown = append(r.Breakdown, Phase{Name: name, Duration: d})
	r.Pause += d
}

// Adjust prices one Elan adjustment of a job that holds the GPUs from before
// it and the GPUs to after it; it is the one closed-form model of an Elan
// pause. The workers in to but not in from start and initialize off the
// critical path (HiddenStartInit is the slowest of them) and receive the
// training state by the concurrent topology-aware replication plan, from the
// workers that stay or, when none stays, from all of from. The pause is one
// coordination of len(from) workers, that replication (only when a worker
// joins), the data repartition and the communicator reconstruction for
// len(to) workers, each sampled from rng in that order.
func (c SystemCosts) Adjust(rng *rand.Rand, cl *topology.Cluster, m models.Model,
	kind coord.Kind, from, to []topology.GPUID) (AdjustmentReport, error) {
	held := make(map[topology.GPUID]bool, len(from))
	for _, g := range from {
		held[g] = true
	}
	var stay, join []topology.GPUID
	for _, g := range to {
		if held[g] {
			stay = append(stay, g)
		} else {
			join = append(join, g)
		}
	}
	rep := AdjustmentReport{Kind: kind}
	var plan *replication.Plan
	if len(join) > 0 {
		sources := stay
		if len(sources) == 0 {
			sources = from
		}
		var err error
		if plan, err = replication.NewPlan(sources, join, m.GPUStateBytes(), m.CPUStateBytes); err != nil {
			return AdjustmentReport{}, err
		}
		for range join {
			rep.HiddenStartInit = max(rep.HiddenStartInit, c.StartInitTime(rng))
		}
	}
	rep.add("coordinate", c.CoordTime(rng, len(from)))
	if plan != nil {
		rep.add("replicate", c.sample(rng, plan.Duration(cl)))
	}
	rep.add("repartition", c.sample(rng, c.Repartition))
	rep.add("group-reconstruct", c.GroupReconstructTime(rng, len(to)))
	return rep, nil
}

// AdjustInTreeOrder prices an adjustment of kind from oldWorkers to
// newWorkers by Adjust, on the canonical placement: a cluster of the default
// geometry whose GPUs are handed out in tree order, the job's oldWorkers
// first. A scale-out or scale-in ends on the first newWorkers GPUs; a
// migration on the newWorkers GPUs after the old ones.
func (c SystemCosts) AdjustInTreeOrder(rng *rand.Rand, kind coord.Kind, m models.Model,
	oldWorkers, newWorkers int) (AdjustmentReport, error) {
	if oldWorkers <= 0 || newWorkers <= 0 {
		return AdjustmentReport{}, fmt.Errorf("core: invalid worker counts %d -> %d", oldWorkers, newWorkers)
	}
	g := topology.DefaultGeometry()
	perNode := g.SocketsPerNode * g.SwitchesPerSock * g.GPUsPerSwitch
	g.Nodes = (oldWorkers + newWorkers + perNode - 1) / perNode
	cl, err := topology.NewCluster(g)
	if err != nil {
		return AdjustmentReport{}, err
	}
	gpus, err := cl.Reserve(oldWorkers + newWorkers)
	if err != nil {
		return AdjustmentReport{}, err
	}
	ids := topology.IDsOf(gpus)
	var to []topology.GPUID
	switch kind {
	case coord.ScaleOut, coord.ScaleIn:
		to = ids[:newWorkers]
	case coord.Migrate:
		to = ids[oldWorkers:]
	default:
		return AdjustmentReport{}, fmt.Errorf("core: invalid adjustment kind %v", kind)
	}
	return c.Adjust(rng, cl, m, kind, ids[:oldWorkers], to)
}

// resize moves the job onto to by Adjust and applies the hybrid scaling
// mechanism's new total batch size and learning-rate target.
func (j *Job) resize(kind coord.Kind, to []topology.GPUID) (AdjustmentReport, error) {
	dec, err := j.Mech.Decide(j.Model, len(j.Workers), j.TotalBatch, len(to), j.LR)
	if err != nil {
		return AdjustmentReport{}, fmt.Errorf("core: hybrid scaling: %w", err)
	}
	rep, err := j.Costs.Adjust(j.rng, j.Cluster, j.Model, kind, j.Workers, to)
	if err != nil {
		return AdjustmentReport{}, err
	}
	rep.Decision = dec
	j.Workers, j.TotalBatch, j.LR = to, dec.TotalBatch, dec.TargetLR
	return rep, nil
}

// ScaleOut grows the job onto the additional GPUs using Elan's mechanisms:
// start/init of the new workers overlaps training; the pause is one
// coordination, the concurrent topology-aware replication, the data
// repartition and the communicator reconstruction. The hybrid scaling
// mechanism picks the new total batch size and learning-rate target.
func (j *Job) ScaleOut(add []topology.GPUID) (AdjustmentReport, error) {
	if len(add) == 0 {
		return AdjustmentReport{}, fmt.Errorf("core: scale-out with no GPUs")
	}
	to := append(append([]topology.GPUID(nil), j.Workers...), add...)
	return j.resize(coord.ScaleOut, to)
}

// ScaleIn shrinks the job by removing the given GPUs. No state movement is
// needed (every survivor holds a full copy); the pause is coordination,
// repartition and communicator reconstruction.
func (j *Job) ScaleIn(remove []topology.GPUID) (AdjustmentReport, error) {
	if len(remove) == 0 {
		return AdjustmentReport{}, fmt.Errorf("core: scale-in with no GPUs")
	}
	if len(remove) >= len(j.Workers) {
		return AdjustmentReport{}, fmt.Errorf("core: scale-in would remove all %d workers", len(j.Workers))
	}
	removeSet := make(map[topology.GPUID]bool, len(remove))
	for _, g := range remove {
		removeSet[g] = true
	}
	var survivors []topology.GPUID
	for _, w := range j.Workers {
		if !removeSet[w] {
			survivors = append(survivors, w)
		}
	}
	if len(survivors)+len(remove) != len(j.Workers) {
		return AdjustmentReport{}, fmt.Errorf("core: scale-in GPUs not all part of the job")
	}
	return j.resize(coord.ScaleIn, survivors)
}

// Replace swaps a single worker for a new GPU — the straggler-mitigation
// primitive: when one device degrades, its rank is moved to a healthy GPU
// while the rest of the job keeps its placement. State for the replacement
// comes from the nearest surviving worker; the pause is that of a one-worker
// migration. The batch size and learning rate are untouched.
func (j *Job) Replace(old, new topology.GPUID) (AdjustmentReport, error) {
	idx := slices.Index(j.Workers, old)
	if idx < 0 {
		return AdjustmentReport{}, fmt.Errorf("core: worker %v not part of the job", old)
	}
	if len(j.Workers) == 1 {
		return AdjustmentReport{}, fmt.Errorf("core: cannot replace the only worker")
	}
	to := slices.Clone(j.Workers)
	to[idx] = new
	rep, err := j.Costs.Adjust(j.rng, j.Cluster, j.Model, coord.Migrate, j.Workers, to)
	if err != nil {
		return AdjustmentReport{}, err
	}
	j.Workers = to
	return rep, nil
}

// Migrate moves the job to a new worker set. State is replicated to the
// workers that join, from those that stay or, for a move to a disjoint set,
// from all old workers; the old workers are released afterwards (their
// shutdown is off the critical path).
func (j *Job) Migrate(dest []topology.GPUID) (AdjustmentReport, error) {
	if len(dest) == 0 {
		return AdjustmentReport{}, fmt.Errorf("core: migrate to empty worker set")
	}
	return j.resize(coord.Migrate, slices.Clone(dest))
}
