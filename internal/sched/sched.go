// Package sched is the discrete-time cluster scheduling simulator of
// Section VI-C: it replays a job trace against a GPU cluster under four
// policies — FIFO, Backfill (BF), and their elastic variants (E-FIFO,
// E-BF) built on the paper's admission and allocation rules — and under
// three elasticity systems (Ideal, Elan, S&R) whose runtime overheads and
// adjustment pauses are charged to the jobs. The statistics it reports are
// the paper's: job pending time (JPT), job completion time (JCT), makespan
// and GPU utilization over time.
package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/elan-sys/elan/internal/baseline"
	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/metrics"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/trace"
)

// Policy selects the scheduling discipline.
type Policy int

const (
	// FIFO starts jobs strictly in submission order.
	FIFO Policy = iota + 1
	// Backfill lets later jobs start early when they do not delay the
	// queue head (EASY backfill on estimated finish times).
	Backfill
	// ElasticFIFO is FIFO plus the paper's elastic admission and
	// allocation rules.
	ElasticFIFO
	// ElasticBackfill is Backfill plus the elastic rules.
	ElasticBackfill
)

// String names the policy as in Figure 20.
func (p Policy) String() string {
	switch p {
	case FIFO:
		return "FIFO"
	case Backfill:
		return "BF"
	case ElasticFIFO:
		return "E-FIFO"
	case ElasticBackfill:
		return "E-BF"
	default:
		return fmt.Sprintf("Policy(%d)", int(p))
	}
}

// Elastic reports whether the policy adjusts resources at runtime.
func (p Policy) Elastic() bool { return p == ElasticFIFO || p == ElasticBackfill }

// System models the elasticity substrate's costs (Figure 22).
type System interface {
	// Name identifies the system in reports.
	Name() string
	// Overhead is the relative steady-state throughput loss.
	Overhead() float64
	// Pause returns the training pause charged for one adjustment.
	Pause(kind coord.Kind, m models.Model, oldWorkers, newWorkers int) time.Duration
}

// IdealSystem has zero overhead and instantaneous adjustments.
type IdealSystem struct{}

// Name implements System.
func (IdealSystem) Name() string { return "Ideal" }

// Overhead implements System.
func (IdealSystem) Overhead() float64 { return 0 }

// Pause implements System.
func (IdealSystem) Pause(coord.Kind, models.Model, int, int) time.Duration { return 0 }

// ElanSystem charges Elan's costs: sub-permille overhead and ~1s pauses.
type ElanSystem struct {
	Costs core.SystemCosts
	rng   *rand.Rand
}

// NewElanSystem builds the Elan cost model.
func NewElanSystem(seed int64) *ElanSystem {
	return &ElanSystem{Costs: core.DefaultSystemCosts(), rng: rand.New(rand.NewSource(seed))}
}

// Name implements System.
func (e *ElanSystem) Name() string { return "Elan" }

// Overhead implements System: one coordination per iteration at ~300µs
// against ~200ms iterations is well under 3 per-mille.
func (e *ElanSystem) Overhead() float64 { return 0.0015 }

// Pause implements System with core's one Elan model, on its canonical
// tree-order placement (the one Figure 15 prices).
func (e *ElanSystem) Pause(kind coord.Kind, m models.Model, oldWorkers, newWorkers int) time.Duration {
	rep, err := e.Costs.AdjustInTreeOrder(e.rng, kind, m, oldWorkers, newWorkers)
	if err != nil {
		panic(fmt.Sprintf("sched: Elan pause: %v", err))
	}
	return rep.Pause
}

// SRSystem charges Shutdown-&-Restart costs.
type SRSystem struct {
	sr *baseline.SR
}

// NewSRSystem builds the S&R cost model.
func NewSRSystem(seed int64) *SRSystem {
	return &SRSystem{sr: baseline.NewSR(core.DefaultSystemCosts(), checkpoint.DefaultFSModel(), seed)}
}

// Name implements System.
func (s *SRSystem) Name() string { return "S&R" }

// Overhead implements System: same periodic coordination as Elan.
func (s *SRSystem) Overhead() float64 { return 0.0015 }

// Pause implements System with baseline's one S&R model.
func (s *SRSystem) Pause(kind coord.Kind, m models.Model, oldWorkers, newWorkers int) time.Duration {
	rep, err := s.sr.Adjust(kind, m, oldWorkers, newWorkers)
	if err != nil {
		panic(fmt.Sprintf("sched: S&R pause: %v", err))
	}
	return rep.Pause
}

// Config parametrizes a simulation run.
type Config struct {
	Policy Policy
	System System
	// GPUs is the cluster size (128 in the paper).
	GPUs int
	// Tick is the simulation step.
	Tick time.Duration
	// ReallocEvery is how often the elastic allocation rule re-runs.
	ReallocEvery time.Duration
	// Perf is the throughput model.
	Perf *perfmodel.Perf
	// MinEfficientBatch floors the per-worker batch under strong scaling:
	// below it the hybrid rule grows the total batch instead (the
	// "minimum total batch size without under-utilization").
	MinEfficientBatch int
	// CapacityFn, when set, makes the GPU pool time-varying (transient /
	// spot capacity): at each tick the cluster holds CapacityFn(now) GPUs,
	// clamped to [0, GPUs]. Requires an elastic policy: when capacity is
	// reclaimed, running jobs are shrunk (to min_res and, in emergencies,
	// below) to fit.
	CapacityFn func(time.Duration) int
	// Metrics, when set, receives the scheduler's counters and the
	// queueing-delay histogram (sched_queue_seconds). The simulator runs on
	// virtual time, so delays are observed in virtual seconds; a nil
	// registry disables everything at zero cost.
	Metrics *telemetry.Registry
}

// DefaultConfig returns the paper's experimental setup for a policy/system.
func DefaultConfig(p Policy, sys System) Config {
	return Config{
		Policy:            p,
		System:            sys,
		GPUs:              128,
		Tick:              time.Second,
		ReallocEvery:      2 * time.Minute,
		Perf:              perfmodel.Default(),
		MinEfficientBatch: 8,
	}
}

// JobStats is the per-job outcome.
type JobStats struct {
	ID      int
	Submit  time.Duration
	Start   time.Duration
	Finish  time.Duration
	Pending time.Duration // Start - Submit (JPT)
	JCT     time.Duration // Finish - Submit
}

// Result aggregates a run.
type Result struct {
	Policy    Policy
	System    string
	Jobs      []JobStats
	Makespan  time.Duration
	MeanJPT   time.Duration
	MeanJCT   time.Duration
	P50JCT    time.Duration
	P90JCT    time.Duration
	P90JPT    time.Duration
	UtilHours []float64
	UtilVals  []float64
}

type simJob struct {
	spec      trace.Job
	started   bool
	finished  bool
	start     time.Duration
	finish    time.Duration
	workers   int
	perBatch  int
	remaining float64
	// pausedUntil freezes progress during an adjustment.
	pausedUntil time.Duration
	rate        float64 // cached samples/sec at current allocation
}

// Run simulates the trace to completion and returns the result.
func Run(cfg Config, jobs []trace.Job) (*Result, error) {
	if cfg.GPUs <= 0 {
		return nil, fmt.Errorf("sched: non-positive GPU count")
	}
	if cfg.System == nil {
		return nil, fmt.Errorf("sched: nil system")
	}
	if cfg.Perf == nil {
		cfg.Perf = perfmodel.Default()
	}
	if cfg.Tick <= 0 {
		cfg.Tick = time.Second
	}
	if cfg.ReallocEvery <= 0 {
		cfg.ReallocEvery = 2 * time.Minute
	}
	if cfg.MinEfficientBatch <= 0 {
		cfg.MinEfficientBatch = 8
	}
	if len(jobs) == 0 {
		return nil, fmt.Errorf("sched: empty trace")
	}
	if cfg.CapacityFn != nil && !cfg.Policy.Elastic() {
		return nil, fmt.Errorf("sched: transient capacity requires an elastic policy")
	}
	s := &sim{
		cfg:           cfg,
		mQueueSeconds: cfg.Metrics.Histogram("sched_queue_seconds"),
		mStarts:       cfg.Metrics.Counter("sched_jobs_started_total"),
		mAdjustments:  cfg.Metrics.Counter("sched_adjustments_total"),
		mReallocs:     cfg.Metrics.Counter("sched_realloc_runs_total"),
		mReclaims:     cfg.Metrics.Counter("sched_capacity_reclaims_total"),
	}
	for _, j := range jobs {
		if j.ReqWorkers <= 0 || j.MinWorkers <= 0 || j.MaxWorkers < j.ReqWorkers ||
			j.PerWorkerBatch <= 0 || j.TotalSamples <= 0 {
			return nil, fmt.Errorf("sched: invalid trace job %d: %+v", j.ID, j)
		}
		s.jobs = append(s.jobs, &simJob{spec: j, remaining: j.TotalSamples})
	}
	sort.SliceStable(s.jobs, func(i, k int) bool { return s.jobs[i].spec.Submit < s.jobs[k].spec.Submit })
	return s.run()
}

type sim struct {
	cfg   Config
	jobs  []*simJob
	now   time.Duration
	free  int
	total int

	// Nil-safe instruments resolved from cfg.Metrics.
	mQueueSeconds *telemetry.Histogram
	mStarts       *telemetry.Counter
	mAdjustments  *telemetry.Counter
	mReallocs     *telemetry.Counter
	mReclaims     *telemetry.Counter
}

// applyCapacity adjusts the pool to the transient capacity at the current
// time, shrinking running jobs when GPUs are reclaimed.
func (s *sim) applyCapacity(running []*simJob) {
	if s.cfg.CapacityFn == nil {
		return
	}
	want := s.cfg.CapacityFn(s.now)
	if want < 0 {
		want = 0
	}
	if want > s.cfg.GPUs {
		want = s.cfg.GPUs
	}
	if want == s.total {
		return
	}
	s.free += want - s.total
	s.total = want
	if s.free >= 0 {
		return
	}
	// Reclaim: first the allocation rule (shrinks toward min_res)...
	s.reallocate(running, 0)
	// ...then, in emergencies, strip single GPUs from the largest jobs.
	for s.free < 0 {
		var victim *simJob
		for _, j := range running {
			if j.finished || j.workers <= 1 {
				continue
			}
			if victim == nil || j.workers > victim.workers {
				victim = j
			}
		}
		if victim == nil {
			// Nothing left to reclaim (all jobs at 1 GPU): the remaining
			// debt waits for completions; stop shrinking.
			return
		}
		pause := s.cfg.System.Pause(coord.ScaleIn, victim.spec.Model, victim.workers, victim.workers-1)
		victim.workers--
		victim.perBatch = s.batchFor(victim, victim.workers)
		victim.rate = s.rate(victim)
		victim.pausedUntil = s.now + pause
		s.free++
		s.mReclaims.Inc()
		s.mAdjustments.Inc()
	}
}

func (s *sim) run() (*Result, error) {
	s.total = s.cfg.GPUs
	if s.cfg.CapacityFn != nil {
		s.total = s.cfg.CapacityFn(0)
		if s.total < 0 {
			s.total = 0
		}
		if s.total > s.cfg.GPUs {
			s.total = s.cfg.GPUs
		}
	}
	s.free = s.total
	var (
		nextArrival int
		queue       []*simJob
		running     []*simJob
		done        int
		lastRealloc time.Duration
		utilHours   []float64
		utilVals    []float64
		utilAccum   float64
		utilTicks   int
	)
	const utilSampleEvery = 5 * time.Minute
	nextUtilSample := time.Duration(0)
	// Guard against runaway simulations.
	maxTime := s.jobs[len(s.jobs)-1].spec.Submit + 14*24*time.Hour

	for done < len(s.jobs) {
		if s.now > maxTime {
			return nil, fmt.Errorf("sched: simulation exceeded %v with %d/%d jobs done",
				maxTime, done, len(s.jobs))
		}
		// Arrivals.
		for nextArrival < len(s.jobs) && s.jobs[nextArrival].spec.Submit <= s.now {
			queue = append(queue, s.jobs[nextArrival])
			nextArrival++
		}
		// Completions.
		var stillRunning []*simJob
		for _, j := range running {
			if j.finished {
				continue
			}
			stillRunning = append(stillRunning, j)
		}
		running = stillRunning

		// Transient capacity changes (spot reclaim / return).
		s.applyCapacity(running)
		// Scheduling decisions.
		queue = s.admit(queue, &running)
		if s.cfg.Policy.Elastic() && s.now-lastRealloc >= s.cfg.ReallocEvery {
			s.reallocate(running, 0)
			lastRealloc = s.now
		}
		if err := s.checkInvariants(running); err != nil {
			return nil, err
		}

		// Progress.
		tickSec := s.cfg.Tick.Seconds()
		for _, j := range running {
			if j.finished || s.now < j.pausedUntil {
				continue
			}
			j.remaining -= j.rate * tickSec * (1 - s.cfg.System.Overhead())
			if j.remaining <= 0 {
				j.finished = true
				j.finish = s.now + s.cfg.Tick
				s.free += j.workers
				j.workers = 0
				done++
			}
		}
		// Utilization accounting (busy share of the current capacity).
		if s.total > 0 {
			utilAccum += float64(s.total-s.free) / float64(s.total)
		}
		utilTicks++
		if s.now >= nextUtilSample {
			utilHours = append(utilHours, s.now.Hours())
			utilVals = append(utilVals, utilAccum/float64(utilTicks))
			utilAccum, utilTicks = 0, 0
			nextUtilSample += utilSampleEvery
		}
		s.now += s.cfg.Tick

		// Fast-forward across idle gaps (no queue, nothing running).
		if len(running) == 0 && len(queue) == 0 && nextArrival < len(s.jobs) {
			if next := s.jobs[nextArrival].spec.Submit; next > s.now {
				s.now = next
			}
		}
	}
	res := &Result{
		Policy:    s.cfg.Policy,
		System:    s.cfg.System.Name(),
		UtilHours: utilHours,
		UtilVals:  utilVals,
	}
	var first, last time.Duration
	var sumJPT, sumJCT time.Duration
	for i, j := range s.jobs {
		st := JobStats{
			ID:      j.spec.ID,
			Submit:  j.spec.Submit,
			Start:   j.start,
			Finish:  j.finish,
			Pending: j.start - j.spec.Submit,
			JCT:     j.finish - j.spec.Submit,
		}
		res.Jobs = append(res.Jobs, st)
		if i == 0 || j.spec.Submit < first {
			first = j.spec.Submit
		}
		if j.finish > last {
			last = j.finish
		}
		sumJPT += st.Pending
		sumJCT += st.JCT
	}
	res.Makespan = last - first
	res.MeanJPT = sumJPT / time.Duration(len(s.jobs))
	res.MeanJCT = sumJCT / time.Duration(len(s.jobs))
	jcts := make([]float64, len(res.Jobs))
	jpts := make([]float64, len(res.Jobs))
	for i, j := range res.Jobs {
		jcts[i] = j.JCT.Seconds()
		jpts[i] = j.Pending.Seconds()
	}
	res.P50JCT = time.Duration(metrics.Percentile(jcts, 50) * float64(time.Second))
	res.P90JCT = time.Duration(metrics.Percentile(jcts, 90) * float64(time.Second))
	res.P90JPT = time.Duration(metrics.Percentile(jpts, 90) * float64(time.Second))
	return res, nil
}

// checkInvariants verifies resource conservation after every scheduling
// decision: no GPU is double-allocated, every running job's allocation
// respects its bounds, and free never goes negative — except under
// transient capacity once every running job is down to 1 worker, where
// applyCapacity's emergency shrink stops and the debt waits for
// completions.
func (s *sim) checkInvariants(running []*simJob) error {
	used, widest := 0, 0
	for _, j := range running {
		if j.finished {
			continue
		}
		if j.workers <= 0 {
			return fmt.Errorf("sched: running job %d with %d workers at %v",
				j.spec.ID, j.workers, s.now)
		}
		if s.cfg.Policy.Elastic() && j.workers > j.spec.MaxWorkers {
			return fmt.Errorf("sched: job %d over max_res: %d > %d",
				j.spec.ID, j.workers, j.spec.MaxWorkers)
		}
		used += j.workers
		widest = max(widest, j.workers)
	}
	if s.free < 0 && (s.cfg.CapacityFn == nil || widest > 1) {
		return fmt.Errorf("sched: negative free GPUs %d at %v", s.free, s.now)
	}
	if used+s.free != s.total {
		return fmt.Errorf("sched: GPU conservation violated: used %d + free %d != %d at %v",
			used, s.free, s.total, s.now)
	}
	return nil
}

// startJob launches j with the given workers.
func (s *sim) startJob(j *simJob, workers int, running *[]*simJob) {
	j.started = true
	j.start = s.now
	j.workers = workers
	j.perBatch = s.batchFor(j, workers)
	j.rate = s.rate(j)
	s.free -= workers
	*running = append(*running, j)
	s.mStarts.Inc()
	s.mQueueSeconds.Observe((j.start - j.spec.Submit).Seconds())
}

// admit applies the policy's admission rule and returns the new queue.
func (s *sim) admit(queue []*simJob, running *[]*simJob) []*simJob {
	switch s.cfg.Policy {
	case FIFO:
		for len(queue) > 0 && queue[0].spec.ReqWorkers <= s.free {
			s.startJob(queue[0], queue[0].spec.ReqWorkers, running)
			queue = queue[1:]
		}
		return queue
	case Backfill:
		for len(queue) > 0 && queue[0].spec.ReqWorkers <= s.free {
			s.startJob(queue[0], queue[0].spec.ReqWorkers, running)
			queue = queue[1:]
		}
		if len(queue) > 0 {
			// The head's estimated start is computed at the first job that
			// fits: no job has started before it, so it is what the
			// estimate would have been before the loop.
			var headStart time.Duration
			estimated := false
			rest := queue[:1]
			for _, j := range queue[1:] {
				if j.spec.ReqWorkers <= s.free {
					if !estimated {
						headStart, estimated = s.estimateHeadStart(queue[0], *running), true
					}
					if s.estimateFinish(j, j.spec.ReqWorkers) <= headStart {
						s.startJob(j, j.spec.ReqWorkers, running)
						continue
					}
				}
				rest = append(rest, j)
			}
			return rest
		}
		return queue
	case ElasticFIFO, ElasticBackfill:
		// Admission rule: a job starts as soon as min_res fits. If it does
		// not, the allocation rule first shrinks running jobs toward their
		// min_res to make room (the paper's admission integrates with the
		// allocation rule rather than waiting for the periodic cycle).
		for len(queue) > 0 {
			head := queue[0]
			if head.spec.MinWorkers > s.free {
				s.reallocate(*running, head.spec.MinWorkers)
			}
			if head.spec.MinWorkers > s.free {
				break
			}
			s.startJob(head, head.spec.MinWorkers, running)
			queue = queue[1:]
		}
		if s.cfg.Policy == ElasticBackfill && len(queue) > 0 {
			var rest []*simJob
			rest = append(rest, queue[0])
			for _, j := range queue[1:] {
				if j.spec.MinWorkers <= s.free {
					s.startJob(j, j.spec.MinWorkers, running)
				} else {
					rest = append(rest, j)
				}
			}
			return rest
		}
		return queue
	default:
		return queue
	}
}

// estimateFinish predicts when j would finish if started now at workers.
func (s *sim) estimateFinish(j *simJob, workers int) time.Duration {
	bs := s.batchFor(j, workers)
	tp, err := s.cfg.Perf.Throughput(j.spec.Model, workers, bs)
	if err != nil || tp <= 0 {
		return s.now + 365*24*time.Hour
	}
	return s.now + time.Duration(j.remaining/tp*float64(time.Second))
}

// estimateHeadStart predicts the earliest time the queue head could start,
// given currently running jobs release their GPUs at their estimated
// finish times.
func (s *sim) estimateHeadStart(head *simJob, running []*simJob) time.Duration {
	type release struct {
		at time.Duration
		n  int
	}
	var rels []release
	for _, j := range running {
		if j.finished || j.rate <= 0 {
			continue
		}
		at := s.now + time.Duration(j.remaining/j.rate*float64(time.Second))
		rels = append(rels, release{at: at, n: j.workers})
	}
	sort.Slice(rels, func(i, k int) bool { return rels[i].at < rels[k].at })
	free := s.free
	if free >= head.spec.ReqWorkers {
		return s.now
	}
	for _, r := range rels {
		free += r.n
		if free >= head.spec.ReqWorkers {
			return r.at
		}
	}
	return s.now + 365*24*time.Hour
}

// batchFor applies the simplified hybrid rule at the scheduler level: keep
// the job's configured total batch when the per-worker slice stays above
// the efficiency floor, otherwise grow the total batch (weak scaling) up to
// the configured per-worker batch.
func (s *sim) batchFor(j *simJob, workers int) int {
	if workers <= 0 {
		return j.spec.PerWorkerBatch
	}
	per := j.spec.TotalBatch() / workers
	if per < s.cfg.MinEfficientBatch {
		per = s.cfg.MinEfficientBatch
	}
	if per < 1 {
		per = 1
	}
	if per > j.spec.Model.MaxPerWorkerBatch {
		per = j.spec.Model.MaxPerWorkerBatch
	}
	if per > j.spec.PerWorkerBatch {
		per = j.spec.PerWorkerBatch
	}
	return per
}

// rate computes the job's progress rate at its current allocation.
func (s *sim) rate(j *simJob) float64 {
	if j.workers <= 0 {
		return 0
	}
	tp, err := s.cfg.Perf.Throughput(j.spec.Model, j.workers, j.perBatch)
	if err != nil {
		return 0
	}
	return tp
}

// reallocate runs the paper's allocation rule: every running job gets
// min_res from the whole pool, then GPUs go one at a time to the job with
// the highest marginal gain (throughput increase per added worker) until
// resources, max_res or positive gains are exhausted. reserve GPUs are
// withheld from the greedy phase so a pending admission can claim them.
// Jobs are visited in running order, so a tie goes to the earlier job.
// Changed jobs pay the system's adjustment pause. Only a pool below the
// jobs' total min_res, which transient capacity can cause, leaves a job
// allocated 0: it keeps its workers. A job grows only out of GPUs that are
// free or that a shrinking job gives back, never out of GPUs another job
// still holds, so a pool in deficit grows no job.
func (s *sim) reallocate(running []*simJob, reserve int) {
	if len(running) == 0 {
		return
	}
	s.mReallocs.Inc()
	avail := s.free
	var live []*simJob
	for _, j := range running {
		if !j.finished {
			avail += j.workers
			live = append(live, j)
		}
	}
	alloc := make([]int, len(live))
	// Give everyone min_res.
	for i, j := range live {
		alloc[i] = max(0, min(j.spec.MinWorkers, avail))
		avail -= alloc[i]
	}
	// Greedy marginal gain.
	tp := func(j *simJob, w int) float64 {
		if w <= 0 {
			return 0
		}
		v, err := s.cfg.Perf.Throughput(j.spec.Model, w, s.batchFor(j, w))
		if err != nil {
			return 0
		}
		return v
	}
	// A job's gain changes only when it is the one handed a GPU, so each
	// pass recomputes one gain instead of every job's.
	gain := func(i int) float64 {
		if j := live[i]; alloc[i] < j.spec.MaxWorkers {
			return tp(j, alloc[i]+1) - tp(j, alloc[i])
		}
		return 0
	}
	avail -= reserve
	var gains []float64
	if avail > 0 {
		gains = make([]float64, len(live))
		for i := range live {
			gains[i] = gain(i)
		}
	}
	for ; avail > 0; avail-- {
		best, bestGain := -1, 0.0
		for i, g := range gains {
			if g > bestGain {
				best, bestGain = i, g
			}
		}
		if best < 0 {
			break
		}
		alloc[best]++
		gains[best] = gain(best)
	}
	budget := s.free
	for i, j := range live {
		if w := alloc[i]; w > 0 && w < j.workers {
			budget += j.workers - w
		}
	}
	for i, j := range live {
		if grow := alloc[i] - j.workers; grow > 0 {
			grow = max(0, min(grow, budget))
			alloc[i] = j.workers + grow
			budget -= grow
		}
	}
	// Apply changes, charging adjustment pauses.
	for i, j := range live {
		w := alloc[i]
		if w == j.workers || w == 0 {
			continue
		}
		kind := coord.ScaleOut
		if w < j.workers {
			kind = coord.ScaleIn
		}
		pause := s.cfg.System.Pause(kind, j.spec.Model, j.workers, w)
		s.free += j.workers - w
		j.workers = w
		j.perBatch = s.batchFor(j, w)
		j.rate = s.rate(j)
		j.pausedUntil = s.now + pause
		s.mAdjustments.Inc()
	}
}
