package core

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/collective"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/ddp"
	"github.com/elan-sys/elan/internal/nn"
	"github.com/elan-sys/elan/internal/replication"
	"github.com/elan-sys/elan/internal/scaling"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/tensor"
	"github.com/elan-sys/elan/internal/topology"
)

// LiveJob is real elastic data-parallel training: every worker holds its own
// replica of a pure-Go MLP, computes gradients on its shard of the batch,
// averages them with a genuine ring allreduce across goroutines, and steps
// its local optimizer. Resource adjustments perform the paper's full
// procedure with real data movement: the AM coordinates, training state
// (parameters, optimizer velocity, data-loader cursor, iteration counter)
// is replicated from nearest sources per the replication plan, the
// communication group is reconstructed, and the serial loader repartitions.
//
// LiveJob is the substrate of the accuracy experiments: large-batch
// degradation and the progressive linear scaling rule act on genuine SGD.
type LiveJob struct {
	mu sync.Mutex

	dataset  *data.Dataset
	layers   []int
	momentum float64

	workers []*liveWorker
	group   *collective.Group
	loader  *data.SerialLoader
	am      *coord.AM
	copier  *replication.Copier

	// GPU placement: cluster is the optional simulated cluster; gpus is the
	// current reservation backing group. bucketElems parametrizes each
	// worker's gradient reducer.
	cluster     *topology.Cluster
	gpus        []*topology.GPU
	bucketElems int

	iter     int
	tbs      int
	lrSched  *scaling.LRSchedule
	seed     int64
	nextName int

	// clk times adjustments (the paper's sub-second adjustment-latency
	// accounting); lastAdjust is the duration of the most recent one.
	clk        clock.Clock
	lastAdjust time.Duration

	// Telemetry: adjustment spans carry the commit-point and rollback
	// events of the paper's Fig. 11/13 adjustment-cost story; all
	// instruments are nil-safe, so the uninstrumented step path is free.
	tr             telemetry.Tracer
	metrics        *telemetry.Registry
	link           string
	mSteps         *telemetry.Counter
	mStepSeconds   *telemetry.Histogram
	mAdjustments   *telemetry.Counter
	mAdjustSeconds *telemetry.Histogram
	mRollbacks     *telemetry.Counter
}

// liveWorker is one data-parallel replica.
type liveWorker struct {
	name string
	net  *nn.MLP
	opt  *nn.SGD
	// Step workspace, reused across iterations (touched only by this
	// worker's step goroutine): the bucketed gradient reducer (over the
	// network's gradient arena) and the materialized batch.
	red    *ddp.Reducer
	batchX *tensor.Matrix
	batchY []int
}

// LiveConfig configures a LiveJob.
type LiveConfig struct {
	// Dataset to train on (required).
	Dataset *data.Dataset
	// LayerSizes is the MLP architecture, e.g. {features, 64, 64, classes}.
	LayerSizes []int
	// Workers is the initial worker count.
	Workers int
	// TotalBatch is the initial total batch size; must be divisible by
	// Workers.
	TotalBatch int
	// LR and Momentum configure SGD.
	LR       float64
	Momentum float64
	// Seed makes the run deterministic.
	Seed int64
	// Clock is the time source used to measure adjustment latency; nil
	// selects the wall clock. Simulated runs inject a clock.Sim so the
	// job and the simulator share one notion of time.
	Clock clock.Clock
	// Tracer records step and adjustment spans (with commit-point and
	// rollback events); nil disables tracing at zero cost.
	Tracer telemetry.Tracer
	// Metrics receives the job's counters and histograms; nil disables
	// them at zero cost. The collective group shares it.
	Metrics *telemetry.Registry
	// LinkLabel tags allreduce spans with a link level; empty defaults to
	// "inproc" (the in-process goroutine substrate). Ignored when Cluster
	// is set: the label then reflects the worst link level of the actual
	// GPU placement.
	LinkLabel string
	// Cluster, when non-nil, places workers on simulated GPUs: every group
	// (re)construction reserves one GPU per worker in deterministic tree
	// order, and placements spanning nodes get the hierarchical allreduce.
	Cluster *topology.Cluster
	// BucketElems caps gradient-bucket sizes for each worker's ddp reducer,
	// enabling comm/compute overlap during backward. 0 keeps one
	// whole-vector bucket — arithmetic identical to the historical
	// AllReduceMean path.
	BucketElems int
}

// NewLiveJob builds the job, initializes identical replicas on all workers
// and registers the state-replication hooks.
func NewLiveJob(cfg LiveConfig) (*LiveJob, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("core: nil dataset")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("core: non-positive worker count %d", cfg.Workers)
	}
	if cfg.TotalBatch <= 0 || cfg.TotalBatch%cfg.Workers != 0 {
		return nil, fmt.Errorf("core: total batch %d not divisible by %d workers",
			cfg.TotalBatch, cfg.Workers)
	}
	if len(cfg.LayerSizes) < 2 {
		return nil, fmt.Errorf("core: need at least input and output layer sizes")
	}
	if cfg.LayerSizes[0] != cfg.Dataset.Features {
		return nil, fmt.Errorf("core: input size %d != dataset features %d",
			cfg.LayerSizes[0], cfg.Dataset.Features)
	}
	if cfg.LayerSizes[len(cfg.LayerSizes)-1] != cfg.Dataset.Classes {
		return nil, fmt.Errorf("core: output size %d != dataset classes %d",
			cfg.LayerSizes[len(cfg.LayerSizes)-1], cfg.Dataset.Classes)
	}
	lrSched, err := scaling.NewLRSchedule(cfg.LR, cfg.LR, 0, 0)
	if err != nil {
		return nil, err
	}
	loader, err := data.NewSerialLoader(cfg.Dataset.N())
	if err != nil {
		return nil, err
	}
	am, err := coord.NewAM("live-job", store.New())
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	if cfg.LinkLabel == "" {
		cfg.LinkLabel = "inproc"
	}
	lj := &LiveJob{
		dataset:  cfg.Dataset,
		layers:   append([]int(nil), cfg.LayerSizes...),
		momentum: cfg.Momentum,
		loader:   loader,
		am:       am,
		tbs:      cfg.TotalBatch,
		lrSched:  lrSched,
		seed:     cfg.Seed,
		clk:      cfg.Clock,
		tr:       telemetry.OrNop(cfg.Tracer),
		link:     cfg.LinkLabel,
		metrics:  cfg.Metrics,

		cluster:     cfg.Cluster,
		bucketElems: cfg.BucketElems,

		mSteps:         cfg.Metrics.Counter("core_steps_total"),
		mStepSeconds:   cfg.Metrics.Histogram("core_step_seconds"),
		mAdjustments:   cfg.Metrics.Counter("core_adjustments_total"),
		mAdjustSeconds: cfg.Metrics.Histogram("core_adjust_seconds"),
		mRollbacks:     cfg.Metrics.Counter("core_rollbacks_total"),
	}
	if err := lj.rebuildGroupLocked(cfg.Workers); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Workers; i++ {
		w, err := lj.buildWorker(cfg.LR)
		if err != nil {
			return nil, err
		}
		lj.workers = append(lj.workers, w)
	}
	lj.registerHooks()
	return lj, nil
}

// buildWorker constructs a replica. All replicas are built from the same
// seed so initial parameters are identical across workers — the data-
// parallel invariant. Newly added workers are built the same way and then
// overwritten by state replication.
func (lj *LiveJob) buildWorker(lr float64) (*liveWorker, error) {
	rng := rand.New(rand.NewSource(lj.seed))
	net, err := nn.NewMLP(rng, lj.layers)
	if err != nil {
		return nil, err
	}
	opt, err := nn.NewSGD(net.Params(), lr, lj.momentum)
	if err != nil {
		return nil, err
	}
	name := fmt.Sprintf("w%d", lj.nextName)
	lj.nextName++
	red := ddp.New(net, ddp.Config{BucketElems: lj.bucketElems})
	return &liveWorker{name: name, net: net, opt: opt, red: red}, nil
}

// closeWorkers shuts down the reducers of workers leaving the job — on
// scale-in, on scale-out rollback, and at Close. Callers hold lj.mu, so no
// step is in flight.
func closeWorkers(ws []*liveWorker) {
	for _, w := range ws {
		w.red.Close()
	}
}

// rebuildGroupLocked replaces the collective group with one sized for n
// ranks — the single implementation of communication-group reconstruction
// shared by construction and both scaling directions. With a Cluster
// configured the old GPU reservation is released and n GPUs re-reserved in
// deterministic tree order, so the group's topology (flat vs hierarchical)
// and link label always match the actual placement. Callers hold lj.mu or
// own lj exclusively (construction).
func (lj *LiveJob) rebuildGroupLocked(n int) error {
	link := lj.link
	var topo collective.Topology = collective.Flat(n)
	if lj.cluster != nil {
		lj.cluster.Release(lj.gpus)
		lj.gpus = nil
		gpus, err := lj.cluster.Reserve(n)
		if err != nil {
			return err
		}
		ct, err := collective.NewClustered(topology.IDsOf(gpus))
		if err != nil {
			lj.cluster.Release(gpus)
			return err
		}
		lj.gpus = gpus
		topo = ct
		link = collective.LinkLabelOf(ct)
	}
	group, err := collective.NewGroupWithTopology(topo)
	if err != nil {
		return err
	}
	group.SetTelemetry(lj.tr, lj.metrics, lj.clk, link)
	if lj.group != nil {
		// Closes the old group and hands its chunk scratch to the new one:
		// under lj.mu no rank is inside a collective (DESIGN §9).
		group.AdoptScratch(lj.group)
	}
	lj.group = group
	return nil
}

// registerHooks installs the paper's hook API: one hook per state kind
// (Table II). GPU-resident state: model parameters and optimizer velocity;
// CPU-resident state: the data cursor and iteration counter are global to
// the job (held by the loader and the job itself), so their "replication"
// is a no-op recorded for completeness.
func (lj *LiveJob) registerHooks() {
	lj.copier = replication.NewCopier()
	// Errors are impossible here (non-empty kinds, non-nil funcs).
	_ = lj.copier.RegisterHook(replication.Hook{
		Kind: "model", OnGPU: true,
		Copy: func(src, dst int) error {
			return lj.workers[dst].net.LoadParams(lj.workers[src].net.FlattenParams(nil))
		},
	})
	_ = lj.copier.RegisterHook(replication.Hook{
		Kind: "optimizer", OnGPU: true,
		Copy: func(src, dst int) error {
			return lj.workers[dst].opt.LoadState(lj.workers[src].opt.FlattenState(nil))
		},
	})
	_ = lj.copier.RegisterHook(replication.Hook{
		Kind: "data", OnGPU: false,
		Copy: func(src, dst int) error { return nil }, // loader cursor is job-global
	})
	_ = lj.copier.RegisterHook(replication.Hook{
		Kind: "runtime", OnGPU: false,
		Copy: func(src, dst int) error {
			lj.workers[dst].opt.LR = lj.workers[src].opt.LR
			return nil
		},
	})
}

// NumWorkers returns the current worker count.
func (lj *LiveJob) NumWorkers() int {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return len(lj.workers)
}

// TotalBatch returns the current total batch size.
func (lj *LiveJob) TotalBatch() int {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return lj.tbs
}

// Iteration returns the number of completed steps.
func (lj *LiveJob) Iteration() int {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return lj.iter
}

// LR returns the learning rate the next step will use.
func (lj *LiveJob) LR() float64 {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return lj.lrSched.At(lj.iter)
}

// Step runs one synchronous data-parallel training iteration and returns
// the mean loss across workers. Each worker runs on its own goroutine and
// gradients are combined with a real ring allreduce.
func (lj *LiveJob) Step() (float64, error) {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return lj.stepLocked()
}

func (lj *LiveJob) stepLocked() (_ float64, err error) {
	n := len(lj.workers)
	perWorker := lj.tbs / n
	if perWorker == 0 {
		return 0, fmt.Errorf("core: total batch %d too small for %d workers", lj.tbs, n)
	}
	span := lj.tr.StartSpan("core.step")
	span.AnnotateInt("iter", lj.iter)
	span.AnnotateInt("workers", n)
	stepStart := lj.clk.Now()
	defer func() {
		lj.mStepSeconds.Observe(lj.clk.Since(stepStart).Seconds())
		lj.mSteps.Inc()
		if err != nil {
			span.Annotate("error", err.Error())
		}
		span.End()
	}()
	lr := lj.lrSched.At(lj.iter)

	// Assign data shards (serial semantics).
	type shard struct{ lo, hi int }
	shards := make([]shard, n)
	for w := 0; w < n; w++ {
		lo, hi, err := lj.loader.NextBatch(w, n, perWorker)
		if err != nil {
			return 0, err
		}
		shards[w] = shard{lo: lo, hi: hi}
	}

	losses := make([]float64, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			rspan := span.Child("core.rank_step")
			rspan.AnnotateInt("rank", w)
			rspan.AnnotateInt("iter", lj.iter)
			defer func() {
				if errs[w] != nil {
					rspan.Annotate("error", errs[w].Error())
				}
				rspan.End()
			}()
			worker := lj.workers[w]
			bn := shards[w].hi - shards[w].lo
			if bn <= 0 {
				errs[w] = fmt.Errorf("core: empty shard [%d, %d)", shards[w].lo, shards[w].hi)
				return
			}
			if worker.batchX == nil || worker.batchX.Rows != bn {
				worker.batchX = tensor.MustNew(bn, lj.dataset.Features)
				worker.batchY = make([]int, bn)
			}
			fspan := rspan.Child("core.forward")
			if err := lj.dataset.BatchInto(worker.batchX, worker.batchY, shards[w].lo, shards[w].hi); err != nil {
				fspan.End()
				errs[w] = err
				return
			}
			worker.net.ZeroGrads()
			out, err := worker.net.Forward(worker.batchX)
			if err != nil {
				fspan.End()
				errs[w] = err
				return
			}
			loss, grad, err := worker.net.SoftmaxLoss(out, worker.batchY)
			fspan.End()
			if err != nil {
				errs[w] = err
				return
			}
			losses[w] = loss
			if err := worker.red.BackwardAllReduceTraced(lj.group, w, grad, rspan.Context()); err != nil {
				errs[w] = err
				return
			}
			ospan := rspan.Child("core.optimize")
			worker.opt.LR = lr
			errs[w] = worker.opt.Step(worker.net.Params(), worker.net.Grads())
			ospan.End()
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	lj.iter++
	var mean float64
	for _, l := range losses {
		mean += l
	}
	return mean / float64(n), nil
}

// SetTotalBatch changes the total batch size (the AdaBatch-style dynamic
// batch algorithm calls this). If progressive is true the learning rate
// ramps linearly to lr*k over rampIters iterations (the progressive linear
// scaling rule); otherwise it jumps immediately (the ablation).
func (lj *LiveJob) SetTotalBatch(tbs, rampIters int, progressive bool) error {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	if tbs <= 0 || tbs%len(lj.workers) != 0 {
		return fmt.Errorf("core: total batch %d not divisible by %d workers", tbs, len(lj.workers))
	}
	k := float64(tbs) / float64(lj.tbs)
	lr0 := lj.lrSched.At(lj.iter)
	lrT := lr0 * k
	ramp := 0
	if progressive {
		ramp = rampIters
	}
	sched, err := scaling.NewLRSchedule(lr0, lrT, lj.iter, ramp)
	if err != nil {
		return err
	}
	lj.tbs = tbs
	lj.lrSched = sched
	return nil
}

// ForceLR pins the learning rate to lr from the current iteration onwards,
// discarding any ramp in progress. The Figure 5 "Default" configuration
// uses it to model naive weak scaling that grows the batch without
// touching the learning rate.
func (lj *LiveJob) ForceLR(lr float64) error {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	sched, err := scaling.NewLRSchedule(lr, lr, lj.iter, 0)
	if err != nil {
		return err
	}
	lj.lrSched = sched
	return nil
}

// ScaleOut adds n workers through the full Elan procedure: the AM receives
// the request, the new workers "start" (replica construction) and report,
// the next coordination fires the adjustment, state is replicated via the
// registered hooks, the loader repartitions and the group is reconstructed.
// The total batch size is unchanged (strong scaling); combine with
// SetTotalBatch for weak or hybrid scaling.
func (lj *LiveJob) ScaleOut(n int) error {
	return lj.ScaleOutCtx(context.Background(), n)
}

// ScaleOutCtx is ScaleOut under a caller context. Cancellation is honored
// at the step boundaries before the request is registered with the AM —
// the commit point — and unwinds cleanly: freshly built replicas are
// discarded and no job state changes. Once the AM has accepted the
// request the adjustment runs to completion, preserving the protocol's
// atomicity.
func (lj *LiveJob) ScaleOutCtx(ctx context.Context, n int) (err error) {
	if n <= 0 {
		return fmt.Errorf("core: scale-out by %d", n)
	}
	lj.mu.Lock()
	defer lj.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: scale-out cancelled: %w", err)
	}
	start := lj.clk.Now()
	oldN := len(lj.workers)
	span := lj.tr.StartSpan("core.scale_out")
	span.AnnotateInt("from", oldN)
	span.AnnotateInt("to", oldN+n)
	defer func() {
		lj.mAdjustSeconds.Observe(lj.clk.Since(start).Seconds())
		if err != nil {
			span.Annotate("error", err.Error())
		} else {
			lj.mAdjustments.Inc()
		}
		span.End()
	}()
	if lj.tbs%(oldN+n) != 0 {
		return fmt.Errorf("core: total batch %d not divisible by %d workers", lj.tbs, oldN+n)
	}
	// Step 1: request. Launch replicas (the "start+init" that Elan overlaps
	// with training; here construction is synchronous but the AM protocol
	// is exercised end to end).
	buildSpan := span.Child("core.build_replicas")
	lr := lj.lrSched.At(lj.iter)
	var names []string
	var fresh []*liveWorker
	for i := 0; i < n; i++ {
		w, err := lj.buildWorker(lr)
		if err != nil {
			buildSpan.End()
			return err
		}
		fresh = append(fresh, w)
		names = append(names, w.name)
	}
	buildSpan.End()
	// Last cancellation point: the fresh replicas are garbage-collected
	// and nothing was registered anywhere.
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: scale-out cancelled before request: %w", err)
	}
	if err := lj.am.RequestAdjustmentTraced(coord.ScaleOut, names, nil, span.Context()); err != nil {
		return err
	}
	// The AM has accepted the request: past this point the adjustment runs
	// to completion or rolls back — the protocol's commit point.
	span.Event("commit-point")
	// Step 2: report.
	for _, name := range names {
		if err := lj.am.ReportReady(name); err != nil {
			return err
		}
	}
	// Step 3: coordinate.
	adj, ok, err := lj.am.Coordinate()
	if err != nil {
		return err
	}
	if !ok || len(adj.Add) != n {
		return fmt.Errorf("core: coordination did not fire (ok=%v)", ok)
	}
	// Step 4: state replication. Each new worker copies from a source
	// existing worker via the registered hooks (real byte movement). On a
	// replication failure the fresh workers are rolled back so the job is
	// left at its old size with consistent survivors.
	replSpan := span.Child("core.replicate_state")
	lj.workers = append(lj.workers, fresh...)
	for i := 0; i < n; i++ {
		src := i % oldN // spread sources like the concurrent planner
		if err := lj.copier.Execute(src, oldN+i); err != nil {
			lj.workers = lj.workers[:oldN]
			closeWorkers(fresh)
			replSpan.End()
			span.Event("rollback")
			lj.mRollbacks.Inc()
			return err
		}
	}
	replSpan.End()
	// Step 5: state adjustment — repartition and group reconstruction.
	reconfSpan := span.Child("core.reconfigure")
	defer reconfSpan.End()
	if err := lj.loader.Repartition(oldN, oldN+n); err != nil {
		lj.workers = lj.workers[:oldN]
		closeWorkers(fresh)
		span.Event("rollback")
		lj.mRollbacks.Inc()
		return err
	}
	if err := lj.rebuildGroupLocked(oldN + n); err != nil {
		return err
	}
	lj.lastAdjust = lj.clk.Since(start)
	return nil
}

// ScaleIn removes the last n workers (survivors keep their state; nothing
// moves). The total batch size is unchanged.
func (lj *LiveJob) ScaleIn(n int) error {
	return lj.ScaleInCtx(context.Background(), n)
}

// ScaleInCtx is ScaleIn under a caller context; cancellation before the
// AM accepts the request aborts with no state change.
func (lj *LiveJob) ScaleInCtx(ctx context.Context, n int) (err error) {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: scale-in cancelled: %w", err)
	}
	start := lj.clk.Now()
	oldN := len(lj.workers)
	if n <= 0 || n >= oldN {
		return fmt.Errorf("core: scale-in by %d of %d workers", n, oldN)
	}
	newN := oldN - n
	span := lj.tr.StartSpan("core.scale_in")
	span.AnnotateInt("from", oldN)
	span.AnnotateInt("to", newN)
	defer func() {
		lj.mAdjustSeconds.Observe(lj.clk.Since(start).Seconds())
		if err != nil {
			span.Annotate("error", err.Error())
		} else {
			lj.mAdjustments.Inc()
		}
		span.End()
	}()
	if lj.tbs%newN != 0 {
		return fmt.Errorf("core: total batch %d not divisible by %d workers", lj.tbs, newN)
	}
	var names []string
	for _, w := range lj.workers[newN:] {
		names = append(names, w.name)
	}
	if err := lj.am.RequestAdjustmentTraced(coord.ScaleIn, nil, names, span.Context()); err != nil {
		return err
	}
	span.Event("commit-point")
	if _, ok, err := lj.am.Coordinate(); err != nil || !ok {
		return fmt.Errorf("core: scale-in coordination failed (ok=%v err=%v)", ok, err)
	}
	leaving := lj.workers[newN:]
	lj.workers = lj.workers[:newN]
	closeWorkers(leaving)
	reconfSpan := span.Child("core.reconfigure")
	defer reconfSpan.End()
	if err := lj.loader.Repartition(oldN, newN); err != nil {
		return err
	}
	if err := lj.rebuildGroupLocked(newN); err != nil {
		return err
	}
	lj.lastAdjust = lj.clk.Since(start)
	return nil
}

// LastAdjustDuration returns how long the most recent successful
// adjustment took on the job's clock — the quantity behind the paper's
// sub-second adjustment claim. Zero if no adjustment has completed.
func (lj *LiveJob) LastAdjustDuration() time.Duration {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	return lj.lastAdjust
}

// Evaluate computes loss and accuracy of the (replicated) model on the
// given dataset using worker 0's replica.
func (lj *LiveJob) Evaluate(d *data.Dataset) (loss, acc float64, err error) {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	x, y, err := d.Batch(0, d.N())
	if err != nil {
		return 0, 0, err
	}
	out, err := lj.workers[0].net.Forward(x)
	if err != nil {
		return 0, 0, err
	}
	loss, _, err = lj.workers[0].net.SoftmaxLoss(out, y)
	if err != nil {
		return 0, 0, err
	}
	acc, err = nn.Accuracy(out, y)
	return loss, acc, err
}

// ReplicasConsistent verifies the data-parallel invariant: all workers hold
// bitwise-identical parameters. It is the property state replication must
// preserve.
func (lj *LiveJob) ReplicasConsistent() bool {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	ref := lj.workers[0].net.FlattenParams(nil)
	for _, w := range lj.workers[1:] {
		p := w.net.FlattenParams(nil)
		if len(p) != len(ref) {
			return false
		}
		for i := range p {
			if p[i] != ref[i] {
				return false
			}
		}
	}
	return true
}

// Diverged reports whether the model has left the numerically stable region
// (NaN/Inf in parameters) — used by the progressive-LR ablation.
func (lj *LiveJob) Diverged() bool {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	for _, p := range lj.workers[0].net.Params() {
		if p.HasNaN() {
			return true
		}
	}
	return false
}

// Close releases the communication group, the workers' reducers and any
// GPU reservation.
func (lj *LiveJob) Close() {
	lj.mu.Lock()
	defer lj.mu.Unlock()
	lj.group.Close()
	closeWorkers(lj.workers)
	if lj.cluster != nil {
		lj.cluster.Release(lj.gpus)
		lj.gpus = nil
	}
}
