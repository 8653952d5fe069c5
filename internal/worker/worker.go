// Package worker implements the Elan worker-agent architecture as a fleet
// of persistent goroutines: each agent owns its model replica and optimizer
// and runs a long-lived loop whose mailbox carries one command, a step; an
// install writes an idle agent's replica under the fleet lock. A controller
// drives the paper's coordination protocol over the message bus — one agent
// acts as the coordinator calling the AM's Coordinate API between
// iterations — and applies adjustments without ever stopping the existing agents: new agents
// are spawned and report asynchronously, each copies the state straight out
// of the source agent the replication plan gives it (nearest in the
// topology, non-contending pairs concurrently), and the collective group is
// rebuilt in place.
//
// The fleet is the repository's one elastic runtime: the live experiments
// (Figure 5, the progressive-LR ablation), elan-live, the chaos harness and
// the benchmark all train on it. It mirrors a real deployment: workers are
// resident processes with mailboxes, and all control traffic crosses the
// transport layer.
package worker

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
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
	"github.com/elan-sys/elan/internal/transport"
)

// ckptName is the name the fleet checkpoints under.
const ckptName = "fleet"

// command is one mailbox message to an agent: train one iteration.
type command struct {
	rank  int // rank for this iteration
	n     int // group size
	lo    int // shard range
	hi    int
	iter  int // fleet iteration (trace annotation)
	lr    float64
	group *collective.Group
	// tr/trace make the agent's spans remote children of the fleet span
	// that issued the command. Both zero on untraced paths: a nil recorder
	// returns a nil span, so the hot path stays free.
	tr    *telemetry.Recorder
	trace telemetry.TraceContext
	reply chan result
}

type result struct {
	loss float64
	err  error
}

var (
	// errAgentDead is returned by send when the target agent was crashed.
	errAgentDead = errors.New("worker: agent crashed")
	// errNoState is returned by a joiner asked to train before any state
	// was installed into it.
	errNoState = errors.New("worker: no replicated state installed")
)

// rig is everything state-sized an agent computes with: the replica (state
// arena, gradient arena, per-batch-shape layer workspaces), the bucketed
// gradient reducer over that gradient arena, and the materialized batch:
// three parameter-sized vectors (parameters, velocity, gradients). It is
// reused across iterations, so a steady-state step allocates nothing, and it
// outlives its agent, so a warm elastic event does not either: a leaving
// agent's rig is parked on its fleet's spare list and the next joiner takes
// it over (DESIGN §9 has the life-cycle and the rules for who may touch the
// arenas, and when). Inside a step only the agent's goroutine touches its
// rig, apart from the gradient-arena chunks its peers own inside an
// exchange; outside a step its arena is written only under the fleet lock.
type rig struct {
	rep *nn.Replica
	red *ddp.Reducer
	// batchX and batchY are resliced to each step's shard width over
	// buffers as wide as the widest shard so far: elastic rounds move the
	// width back and forth, and only a shard wider than any before
	// allocates.
	batchX tensor.Matrix
	batchY []int
}

// newRig builds a rig. A non-nil rng seeds the replica — a founding agent's;
// a nil rng leaves it zero — a joiner's, whose state arrives by replication.
func newRig(rng *rand.Rand, sizes []int, lr, momentum float64, bucketElems int) (*rig, error) {
	rep, err := nn.NewReplica(rng, sizes, lr, momentum)
	if err != nil {
		return nil, err
	}
	return &rig{rep: rep, red: ddp.New(rep.Net, ddp.Config{BucketElems: bucketElems})}, nil
}

// batchFor reslices the rig's batch buffers to a shard of n rows, growing
// them first if the shard is wider than any before.
//
//elan:hotpath
func (r *rig) batchFor(n, features int) (*tensor.Matrix, []int) {
	if cap(r.batchY) < n || cap(r.batchX.Data) < n*features {
		r.batchX.Data, r.batchY = make([]float64, n*features), make([]int, n) //elan:vet-allow hotpathalloc — batch buffer growth, only for a shard wider than any before
	}
	r.batchX = tensor.Matrix{Rows: n, Cols: features, Data: r.batchX.Data[:n*features]}
	r.batchY = r.batchY[:n]
	return &r.batchX, r.batchY
}

// Agent is one resident worker.
type Agent struct {
	Name string
	// The rig the agent computes with, its own until it leaves the fleet.
	*rig
	// installed reports that rep holds real state: from construction for a
	// seeded agent, from its first install for a joiner, whatever a recycled
	// rig still holds of its previous owner. Like the arena, it is written
	// outside a step only under the fleet lock (install).
	installed bool
	box       chan command
	done      chan struct{}
	// killed is closed by kill(), for a crash or a stop: the loop exits
	// without draining its mailbox and pending sends fail with
	// errAgentDead instead of blocking.
	killed   chan struct{}
	killOnce sync.Once
}

// launchAgent starts an agent on r, new or recycled. seeded says that r
// holds the state to train from; otherwise the agent is a joiner, which
// refuses to train until an install has overwritten whatever r holds: the
// zeros of a new rig, or its previous owner's state.
func launchAgent(name string, r *rig, seeded bool, ds *data.Dataset) *Agent {
	a := &Agent{
		Name:      name,
		rig:       r,
		installed: seeded,
		box:       make(chan command),
		done:      make(chan struct{}),
		killed:    make(chan struct{}),
	}
	go a.loop(ds)
	return a
}

// loop is the agent's resident goroutine.
func (a *Agent) loop(ds *data.Dataset) {
	defer close(a.done)
	for {
		select {
		case <-a.killed:
			return
		case cmd := <-a.box:
			if !a.installed {
				cmd.reply <- result{err: fmt.Errorf("%s: %w", a.Name, errNoState)}
				continue
			}
			cmd.reply <- a.step(ds, cmd)
		}
	}
}

// install copies state, a source agent's arena read in place, into the idle
// agent's replica, under the fleet lock (DESIGN §9); a crashed agent refuses
// it. src and link, where the state comes from and over which link level,
// annotate the install span, a remote child of trace.
func (a *Agent) install(state []float64, src, link string, tr *telemetry.Recorder, trace telemetry.TraceContext) error {
	if !a.alive() {
		return errAgentDead
	}
	span := tr.StartRemoteSpan("worker.install_state", trace)
	span.SetProc(a.Name)
	span.Annotate("src", src)
	span.Annotate("link", link)
	defer span.End()
	if err := a.rep.Install(state); err != nil {
		span.Annotate("error", err.Error())
		return err
	}
	a.installed = true
	return nil
}

// step runs one data-parallel iteration: local forward on the shard, then
// the shared ddp reducer runs backward, reduce-scatters each gradient bucket
// as backward closes it, and inside the last bucket's exchange each rank
// updates the parameters and velocity it owns and hands them to its peers
// (ddp.Reducer.BackwardStep). Everything it touches after warm-up is
// agent-owned and reused — the batch buffers, the network workspaces, and
// the gradient arena backward writes, the reducer averages and the owners'
// update reads in place — so a steady-state step allocates nothing.
//
//elan:hotpath
func (a *Agent) step(ds *data.Dataset, cmd command) (res result) {
	// The rank-step span is a remote child of the fleet's step span; its
	// forward child plus the reducer's backward, allreduce and optimize
	// spans are what the step-time attribution folds into phases. With no
	// tracer in cmd every span below is nil and the path allocates nothing.
	span := cmd.tr.StartRemoteSpan("worker.rank_step", cmd.trace)
	span.SetProc(a.Name)
	span.AnnotateInt("rank", cmd.rank)
	span.AnnotateInt("iter", cmd.iter)
	defer func() { //elan:vet-allow hotpathalloc — non-escaping deferred closure stays on the stack, proven by TestAgentStepZeroAllocs
		if res.err != nil {
			span.Annotate("error", res.err.Error())
		}
		span.End()
	}()
	n := cmd.hi - cmd.lo
	if n <= 0 {
		return result{err: fmt.Errorf("worker: empty shard [%d, %d)", cmd.lo, cmd.hi)} //elan:vet-allow hotpathalloc — cold error path, never taken in the zero-alloc steady state
	}
	x, y := a.batchFor(n, ds.Features)
	fspan := span.Child("worker.forward")
	if err := ds.BatchInto(x, y, cmd.lo, cmd.hi); err != nil {
		fspan.End()
		return result{err: err}
	}
	net := a.rep.Net
	net.ZeroGrads()
	out, err := net.Forward(x)
	if err != nil {
		fspan.End()
		return result{err: err}
	}
	loss, grad, err := net.SoftmaxLoss(out, y)
	fspan.End()
	if err != nil {
		return result{err: err}
	}
	a.rep.Opt.LR = cmd.lr
	if err := a.red.BackwardStep(cmd.group, cmd.rank, grad, a.rep, span.Context()); err != nil {
		return result{err: err}
	}
	return result{loss: loss}
}

// send issues a command and waits for the result. Sends to a crashed agent
// fail with errAgentDead instead of blocking forever.
func (a *Agent) send(cmd command) result {
	cmd.reply = make(chan result, 1)
	select {
	case a.box <- cmd:
	case <-a.killed:
		return result{err: errAgentDead}
	}
	select {
	case r := <-cmd.reply:
		return r
	case <-a.killed:
		return result{err: errAgentDead}
	}
}

// stop terminates the agent's loop and waits for it to exit.
func (a *Agent) stop() {
	a.kill()
	<-a.done
}

// kill ends the agent's loop at once, as a crash would: no drain, no
// goodbye. Idempotent.
func (a *Agent) kill() { a.killOnce.Do(func() { close(a.killed) }) }

// alive reports whether the agent has not been killed.
func (a *Agent) alive() bool {
	select {
	case <-a.killed:
		return false
	default:
		return true
	}
}

// FleetConfig configures a worker fleet.
type FleetConfig struct {
	Dataset    *data.Dataset
	LayerSizes []int
	Workers    int
	TotalBatch int
	LR         float64
	Momentum   float64
	Seed       int64
	// Bus carries coordination traffic; a lossless default is created when
	// nil (tests inject lossy buses). A fleet-created bus is closed by
	// Close; an injected one is left to its owner.
	Bus *transport.Bus
	// Checkpoints, when non-nil, is the checkpoint store the fleet saves
	// training state into (SaveCheckpoint) and recovers from after a
	// crash (RestoreCheckpoint). Its snapshot is the checkpoint's one
	// copy: a save copies the lead agent's arena into it, a restore copies
	// it into the first live agent's arena, and the fleet holds no state
	// vector of its own. Nil disables checkpointing.
	Checkpoints *checkpoint.DeltaStore
	// Clock is the fleet's time source: step latency, joiners' start-up
	// timers and report retries run on it. Nil selects the wall clock. When
	// the fleet creates its own bus the bus shares this clock.
	Clock clock.Clock
	// Tracer records fleet lifecycle, per-step and adjustment spans; nil
	// disables tracing at zero cost. A fleet-created bus shares it.
	Tracer *telemetry.Recorder
	// Metrics receives the fleet's counters and histograms (steps, step
	// latency, adjustments, crashes and recoveries); nil disables them. A
	// fleet-created bus and Tracer's dropped-span counter share it.
	Metrics *telemetry.Registry
	// Flight is the always-on black box: when set (and attached to Tracer
	// when that is non-nil), recent spans keep rolling through the ring and
	// the fleet dumps it automatically on worker and AM crash paths. Nil
	// disables it at zero cost.
	Flight *telemetry.FlightRecorder
	// Cluster, when non-nil, places workers on simulated GPUs: every group
	// (re)construction reserves one GPU per worker in deterministic tree
	// order, the replication plan picks each joiner's nearest source and
	// its contention domains from those GPUs, and allreduce and install
	// spans carry the link levels of the placement. The reduction itself
	// is the same exchange either way. Nil labels every link "inproc", the
	// in-process goroutine substrate.
	Cluster *topology.Cluster
	// BucketElems caps gradient-bucket sizes for the ddp reducer: every
	// bucket but the last is reduce-scattered inline, on the agent's
	// goroutine, as soon as backward has finished its layers; the last
	// bucket's exchange reduces it and commits the optimizer update. 0
	// keeps one whole-vector bucket, whose one exchange reduces and
	// commits after the whole backward.
	BucketElems int
	// StartInit, when set, gives a joiner's start+initialization time on
	// Clock: RequestScaleOut calls it once per joiner, in name order under
	// the fleet lock, and arms a timer that long; the joiner reports to the
	// AM only when it fires. Training goes on meanwhile, so a caller that
	// advances a clock.Sim between Steps sees the paper's hidden start/init
	// (experiment.AblationAsyncTimeline). Nil reports as soon as the agent
	// is up.
	StartInit func() time.Duration
}

// Fleet is the controller plus its resident agents.
type Fleet struct {
	mu sync.Mutex

	cfg    FleetConfig
	clk    clock.Clock
	agents []*Agent
	group  *collective.Group
	// agents, group and gpus change together, only in resizeLocked (and
	// Close): the agents in rank order, their collective group, and the
	// Cluster reservation backing it, rank i on gpus[i] (nil when no cluster
	// is configured).
	gpus   []*topology.GPU
	loader *data.SerialLoader
	store  *store.Store
	// am is nil while the AM is down (CrashAM to RecoverAM).
	am    *coord.AM
	amSvc *coord.Service
	// coordinator is the client used by the lead worker; sched is the
	// scheduler-side client that requests adjustments.
	coordinator *coord.Client
	sched       *coord.Client
	// seq is the last adjustment the lead received from the AM, applied or
	// rolled back: the after of both clients' calls.
	seq int64
	// spawned holds the joiners of requested scale-outs, from the request
	// to the adjustment that admits them.
	spawned map[string]*joiner
	// spare holds the rigs of agents that left the fleet — scaled in, rolled
	// back, crashed and swept — for the next joiners to take over. A rig is
	// built only when this list is empty, so rigs live and spare never
	// outnumber the most workers the fleet had at once.
	spare []*rig
	// onPark, when set (tests only), sees every rig as it is parked.
	onPark func(*rig)
	iter   int
	nextID int
	// lrSched gives every iteration's learning rate: the progressive linear
	// scaling rule's ramp after a batch change, a constant otherwise.
	lrSched *scaling.LRSchedule

	// Lifecycle. ctx bounds every goroutine the fleet owns (the joiners'
	// bring-up and report clients); Close cancels it and waits for wg, so
	// after Close no fleet goroutine survives.
	ctx     context.Context
	cancel  context.CancelFunc
	wg      sync.WaitGroup
	ownsBus bool
	started bool
	closed  bool

	// ckptSeq is the store seq of the fleet's last committed save or
	// restore (0 if none).
	ckptSeq int64

	// Telemetry. lifeSpan covers Start..Close; the instruments are nil-safe
	// so an uninstrumented fleet's step path is allocation-free.
	tr             *telemetry.Recorder
	flight         *telemetry.FlightRecorder
	lifeSpan       *telemetry.Span
	mSteps         *telemetry.Counter
	mStepSeconds   *telemetry.Histogram
	mAdjustments   *telemetry.Counter
	mWorkerCrashes *telemetry.Counter
	mWorkerRejoins *telemetry.Counter
	mAMCrashes     *telemetry.Counter
	mAMRecoveries  *telemetry.Counter
	mCoordSkips    *telemetry.Counter
	mRigsReused    *telemetry.Counter
	mRigsBuilt     *telemetry.Counter
	mSpareRigs     *telemetry.Gauge
}

// joiner is a requested worker on its way up. RequestScaleOut registers it;
// its own goroutine starts the agent, then closes up, then reports ready —
// so whoever learns of the report (the admitting Step, through the AM) finds
// the agent here without waiting.
type joiner struct {
	up    chan struct{}
	agent *Agent // nil if the agent could not be started
}

// NewFleet builds the fleet, the AM and its service, and starts the initial
// agents.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	if cfg.Dataset == nil {
		return nil, fmt.Errorf("worker: nil dataset")
	}
	if cfg.Workers <= 0 {
		return nil, fmt.Errorf("worker: non-positive worker count")
	}
	if n := len(cfg.LayerSizes); n < 2 || cfg.LayerSizes[0] != cfg.Dataset.Features ||
		cfg.LayerSizes[n-1] != cfg.Dataset.Classes {
		return nil, fmt.Errorf("worker: layer sizes %v do not map the dataset's %d features to its %d classes",
			cfg.LayerSizes, cfg.Dataset.Features, cfg.Dataset.Classes)
	}
	lrSched, err := scaling.NewLRSchedule(cfg.LR, cfg.LR, 0, 0)
	if err != nil {
		return nil, err
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Wall{}
	}
	ownsBus := cfg.Bus == nil
	if ownsBus {
		busCfg := transport.DefaultBusConfig()
		busCfg.Clock = cfg.Clock
		busCfg.Tracer = cfg.Tracer
		busCfg.Metrics = cfg.Metrics
		cfg.Bus = transport.NewBus(busCfg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	st := store.New()
	am, err := coord.NewAM("fleet", st)
	if err != nil {
		cancel()
		return nil, err
	}
	// AM-side spans are labeled with the service's endpoint so the
	// cross-process trace shows coord work on the fleet-am track.
	amSvc, err := coord.NewServiceWith(ctx, am, cfg.Bus, "fleet-am", cfg.Tracer)
	if err != nil {
		cancel()
		return nil, err
	}
	coordinator, err := coord.NewClientCtx(ctx, cfg.Bus, "fleet-lead", "fleet-am")
	if err != nil {
		cancel()
		return nil, err
	}
	sched, err := coord.NewClientCtx(ctx, cfg.Bus, "fleet-sched", "fleet-am")
	if err != nil {
		cancel()
		return nil, err
	}
	loader, err := data.NewSerialLoader(cfg.Dataset.N())
	if err != nil {
		cancel()
		return nil, err
	}
	f := &Fleet{
		cfg:            cfg,
		clk:            cfg.Clock,
		loader:         loader,
		store:          st,
		am:             am,
		amSvc:          amSvc,
		coordinator:    coordinator,
		sched:          sched,
		spawned:        make(map[string]*joiner),
		lrSched:        lrSched,
		ctx:            ctx,
		cancel:         cancel,
		ownsBus:        ownsBus,
		tr:             cfg.Tracer,
		flight:         cfg.Flight,
		mSteps:         cfg.Metrics.Counter("worker_steps_total"),
		mStepSeconds:   cfg.Metrics.Histogram("worker_step_seconds"),
		mAdjustments:   cfg.Metrics.Counter("worker_adjustments_total"),
		mWorkerCrashes: cfg.Metrics.Counter("worker_crashes_total"),
		mWorkerRejoins: cfg.Metrics.Counter("worker_rejoins_total"),
		mAMCrashes:     cfg.Metrics.Counter("worker_am_crashes_total"),
		mAMRecoveries:  cfg.Metrics.Counter("worker_am_recoveries_total"),
		mCoordSkips:    cfg.Metrics.Counter("worker_coord_skips_total"),
		mRigsReused:    cfg.Metrics.Counter("worker_rig_reused_total"),
		mRigsBuilt:     cfg.Metrics.Counter("worker_rig_built_total"),
		mSpareRigs:     cfg.Metrics.Gauge("worker_spare_rigs"),
	}
	if cfg.Tracer != nil && cfg.Flight != nil {
		cfg.Tracer.SetFlightRecorder(cfg.Flight)
	}
	cfg.Tracer.Instrument(cfg.Metrics)
	founders := make([]*Agent, 0, cfg.Workers)
	for len(founders) < cfg.Workers && err == nil {
		var a *Agent
		if a, err = f.startOn(f.nextName(), nil, false, nil); err == nil {
			founders = append(founders, a)
		}
	}
	if err == nil {
		err = f.resizeLocked(founders, nil, nil)
	}
	if err != nil {
		for _, a := range founders {
			a.stop()
		}
		f.Close()
		return nil, err
	}
	return f, nil
}

// Start opens the fleet's lifecycle span and ties the fleet's lifetime to
// ctx: when ctx is cancelled the fleet closes. It starts no goroutine — a
// crashed agent is noticed by the next Step's sweep. Start may be called at
// most once.
func (f *Fleet) Start(ctx context.Context) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return fmt.Errorf("worker: fleet closed")
	}
	if f.started {
		return fmt.Errorf("worker: fleet already started")
	}
	f.started = true
	f.lifeSpan = f.tr.StartSpan("worker.fleet")
	f.lifeSpan.SetProc("fleet-lead")
	f.lifeSpan.AnnotateInt("workers", len(f.agents))
	f.lifeSpan.Event("start")
	if ctx != nil && ctx.Done() != nil {
		context.AfterFunc(ctx, f.Close)
	}
	return nil
}

// nextName returns the next fresh agent name.
func (f *Fleet) nextName() string {
	name := fmt.Sprintf("agent-%d", f.nextID)
	f.nextID++
	return name
}

// startOn is the fleet's one way to start an agent: a founding agent
// (seeded replica) or a joiner (filled by replication on admission), on r,
// a spare rig, or on one built here when r is nil. It reads nothing that
// f.mu guards, so a joiner's goroutine runs it while a Step holds the lock.
// span, when tracing, is told which of the two happened and parents the
// build.
func (f *Fleet) startOn(name string, r *rig, joiner bool, span *telemetry.Span) (*Agent, error) {
	if r != nil {
		span.Annotate("rig", "reused")
		f.mRigsReused.Inc()
		return launchAgent(name, r, !joiner, f.cfg.Dataset), nil
	}
	span.Annotate("rig", "built")
	bspan := span.Child("worker.build_rig")
	defer bspan.End()
	var rng *rand.Rand
	if !joiner {
		rng = rand.New(rand.NewSource(f.cfg.Seed))
	}
	// The rate a replica is built with is a placeholder: every step sets its
	// own (command.lr).
	r, err := newRig(rng, f.cfg.LayerSizes, f.cfg.LR, f.cfg.Momentum, f.cfg.BucketElems)
	if err != nil {
		bspan.Annotate("error", err.Error())
		return nil, err
	}
	f.mRigsBuilt.Inc()
	return launchAgent(name, r, !joiner, f.cfg.Dataset), nil
}

// takeSpareLocked returns the most recently parked rig, or nil.
func (f *Fleet) takeSpareLocked() *rig {
	k := len(f.spare) - 1
	if k < 0 {
		return nil
	}
	r := f.spare[k]
	f.spare[k] = nil
	f.spare = f.spare[:k]
	f.mSpareRigs.Set(float64(k))
	return r
}

// parkLocked takes the rig off a, whose goroutine has exited, and puts it on
// the spare list. From here until a joiner's goroutine takes it over the rig
// is the fleet's, and nothing reads it.
func (f *Fleet) parkLocked(a *Agent) {
	r := a.rig
	a.rig = nil
	if f.onPark != nil {
		f.onPark(r)
	}
	f.spare = append(f.spare, r)
	f.mSpareRigs.Set(float64(len(f.spare)))
}

// retire stops an agent that leaves the fleet other than by crashing, takes
// its endpoint off the bus and parks its rig. Callers hold f.mu and have
// made sure that no report goroutine of the agent is still running: one
// would re-create the endpoint.
func (f *Fleet) retire(a *Agent) {
	a.stop()
	f.cfg.Bus.Remove(a.Name)
	f.parkLocked(a)
}

// checkBatch refuses a worker count that does not split the total batch
// tbs evenly: every rank trains tbs/n samples a step.
func checkBatch(tbs, n int) error {
	if tbs <= 0 || n <= 0 || tbs%n != 0 {
		return fmt.Errorf("worker: total batch %d not divisible by %d workers", tbs, n)
	}
	return nil
}

// NumWorkers returns the active agent count.
func (f *Fleet) NumWorkers() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.agents)
}

// Iteration returns completed iterations.
func (f *Fleet) Iteration() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.iter
}

// RequestScaleOut registers a scale-out by n with the AM and starts the n
// joiners, each on its own goroutine: the joiner starts its agent — on a
// spare rig, or on one it has to build first — while the fleet keeps
// training, and reports to the AM when it is up. The adjustment is applied
// by a later Step's coordination, exactly as the paper's mechanism
// prescribes. Crashed agents are swept first, so the grown count the total
// batch must divide is counted from live agents.
func (f *Fleet) RequestScaleOut(n int) error {
	if n <= 0 {
		return fmt.Errorf("worker: scale out by %d", n)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.sweepDeadLocked(); err != nil {
		return err
	}
	if err := checkBatch(f.cfg.TotalBatch, len(f.agents)+n); err != nil {
		return err
	}
	// The request span roots the adjustment's cross-process trace: the
	// transport call, the AM's service spans, each new agent's report, and
	// the eventual apply/install spans all join it. Proc "fleet-sched"
	// because the request is the scheduler's act, not the lead worker's.
	span := f.tr.StartSpan("worker.request_scale_out")
	span.SetProc("fleet-sched")
	span.AnnotateInt("add", n)
	defer span.End()
	names := make([]string, n)
	for i := range names {
		names[i] = f.nextName()
	}
	reqCtx := telemetry.ContextWithSpan(f.ctx, span)
	if err := f.sched.RequestAdjustmentTraced(reqCtx, f.seq, coord.ScaleOut, names, nil, span.Context()); err != nil {
		span.Annotate("error", err.Error())
		return err
	}
	for _, name := range names {
		j := &joiner{up: make(chan struct{})}
		f.spawned[name] = j
		// Armed here, the deadline depends only on the request's time.
		var startInit clock.Timer
		if f.cfg.StartInit != nil {
			startInit = f.clk.NewTimer(f.cfg.StartInit())
		}
		f.wg.Add(1)
		go f.bringUp(name, j, f.takeSpareLocked(), startInit, span.Context())
	}
	return nil
}

// bringUp is a joiner's start-up, on its own goroutine and off the fleet
// lock — a Step holds that for a whole iteration, and the paper's joiners
// start and initialize while training continues: start the agent on r, the
// spare rig the request had to hand, or on one built here; publish it through
// j; wait out startInit, when set; then report ready over the bus like a real
// worker would, until the report lands. The goroutine is fleet-tracked and
// aborts when the fleet closes.
func (f *Fleet) bringUp(name string, j *joiner, r *rig, startInit clock.Timer, request telemetry.TraceContext) {
	defer f.wg.Done()
	// The report span runs on the new agent's own process track, a remote
	// child of the request span (which may already be ended — only
	// annotation is frozen by End, not parenthood).
	rspan := f.tr.StartRemoteSpan("worker.report_ready", request)
	rspan.SetProc(name)
	defer rspan.End()
	a, err := f.startOn(name, r, true, rspan)
	j.agent = a
	close(j.up)
	if err != nil {
		rspan.Annotate("error", err.Error())
		return // never reports: the adjustment stays pending, as for a worker that failed to start
	}
	if startInit != nil {
		select {
		case <-startInit.C():
		case <-f.ctx.Done():
			startInit.Stop()
			return
		}
	}
	cl, err := coord.NewClientCtx(f.ctx, f.cfg.Bus, name, "fleet-am")
	if err != nil {
		return
	}
	rctx := telemetry.ContextWithSpan(f.ctx, rspan)
	// Retry until the report lands: the AM may be down (crashed,
	// recovering) when the agent first comes up, and a report lost
	// to an outage would leave the adjustment Pending forever.
	// ErrUnknownWorker is terminal — the adjustment no longer wants
	// this worker (already admitted or superseded) — and so is
	// ErrClosed: the agent's endpoint was taken off the bus (crashed,
	// retired, fleet closing), nobody is left to report for.
	for {
		err := cl.ReportReadyCtx(rctx, name)
		if err == nil || errors.Is(err, coord.ErrUnknownWorker) || errors.Is(err, transport.ErrClosed) {
			return
		}
		rspan.Event("retry")
		if f.clk.Sleep(f.ctx, 50*time.Millisecond) != nil {
			return // fleet closing
		}
	}
}

// RequestScaleIn registers a scale-in of the last n agents, after sweeping
// out crashed ones: a scale-in never names a dead agent, and the shrunk
// count the total batch must divide is counted from live ones.
func (f *Fleet) RequestScaleIn(n int) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.sweepDeadLocked(); err != nil {
		return err
	}
	if n <= 0 || n >= len(f.agents) {
		return fmt.Errorf("worker: scale in by %d of %d", n, len(f.agents))
	}
	if err := checkBatch(f.cfg.TotalBatch, len(f.agents)-n); err != nil {
		return err
	}
	names := make([]string, 0, n)
	for _, a := range f.agents[len(f.agents)-n:] {
		names = append(names, a.Name)
	}
	span := f.tr.StartSpan("worker.request_scale_in")
	span.SetProc("fleet-sched")
	span.AnnotateInt("remove", n)
	defer span.End()
	return f.sched.RequestAdjustmentTraced(
		telemetry.ContextWithSpan(f.ctx, span), f.seq, coord.ScaleIn, nil, names, span.Context())
}

// Step runs one training iteration: the lead worker coordinates with the
// AM first (applying a pending adjustment if one is ready), then all agents
// execute the iteration concurrently.
//
// Step tolerates faults: crashed agents are swept out of the group before
// dispatch (so a dead rank never wedges the collective), and an
// unreachable AM downgrades coordination to a skip — the fleet keeps
// training through AM outages and picks up pending adjustments once the AM
// recovers, per the paper's decoupling of training from coordination.
func (f *Fleet) Step() (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	span := f.tr.StartSpan("worker.step")
	span.SetProc("fleet-lead")
	span.AnnotateInt("iter", f.iter)
	stepStart := f.clk.Now()
	defer func() {
		f.mStepSeconds.Observe(f.clk.Since(stepStart).Seconds())
		span.End()
	}()
	if err := f.sweepDeadLocked(); err != nil {
		return 0, err
	}
	adj, ok, err := f.coordinator.CoordinateCtx(telemetry.ContextWithSpan(f.ctx, span), f.seq)
	if err != nil {
		if errors.Is(err, transport.ErrClosed) || f.ctx.Err() != nil {
			return 0, err
		}
		// AM unreachable, timed out, or fenced: coordination is advisory,
		// so skip it this iteration and train on.
		f.mCoordSkips.Inc()
		span.Annotate("coord_skip", err.Error())
		ok = false
	}
	if ok {
		f.seq = adj.Seq
		// When the adjustment carries the scheduler request's trace, the
		// apply span joins that cross-process tree (the request → report →
		// coordinate → apply arc); otherwise it nests under this step.
		var aspan *telemetry.Span
		if adj.Trace.Valid() {
			aspan = f.tr.StartRemoteSpan("worker.apply_adjustment", adj.Trace)
			aspan.SetProc("fleet-lead")
			aspan.AnnotateInt("iter", f.iter)
		} else {
			aspan = span.Child("worker.apply_adjustment")
		}
		aspan.Annotate("kind", adj.Kind.String())
		err := f.applyAdjustment(adj, aspan)
		if err != nil {
			aspan.Annotate("error", err.Error())
		}
		aspan.End()
		if err != nil {
			return 0, err
		}
		f.mAdjustments.Inc()
	}
	lr := f.lrSched.At(f.iter)
	n := len(f.agents)
	per := f.cfg.TotalBatch / n
	type shard struct{ lo, hi int }
	shards := make([]shard, n)
	for w := 0; w < n; w++ {
		lo, hi, err := f.loader.NextBatch(w, n, per)
		if err != nil {
			return 0, err
		}
		shards[w] = shard{lo, hi}
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[w] = f.agents[w].send(command{
				rank:  w,
				n:     n,
				lo:    shards[w].lo,
				hi:    shards[w].hi,
				iter:  f.iter,
				lr:    lr,
				group: f.group,
				tr:    f.tr,
				trace: span.Context(),
			})
		}()
	}
	wg.Wait()
	var loss float64
	for _, r := range results {
		if r.err != nil {
			return 0, r.err
		}
		loss += r.loss
	}
	f.iter++
	f.mSteps.Inc()
	span.AnnotateInt("workers", n)
	return loss / float64(n), nil
}

// inprocLink labels the links of a fleet without a Cluster: the in-process
// goroutine substrate.
const inprocLink = "inproc"

// applyAdjustment performs steps 4 and 5 of the procedure for a delivered
// adjustment as one resize: the agents it removes leave, and the joiners it
// adds come in with replicated state. All or nothing: the AM has handed the
// adjustment over and will not deliver it again, so joiners that cannot all
// be admitted are all retired rather than left behind, and the agents it
// would have removed train on.
func (f *Fleet) applyAdjustment(adj coord.Adjustment, aspan *telemetry.Span) error {
	var err error
	join := make([]*Agent, 0, len(adj.Add))
	for _, name := range adj.Add {
		j, ok := f.spawned[name]
		if !ok {
			err = fmt.Errorf("worker: adjustment admits unknown agent %q", name)
			continue
		}
		delete(f.spawned, name)
		<-j.up // closed: the AM has this joiner's report, sent after it was up
		join = append(join, j.agent)
	}
	var stay, leave []*Agent
	for _, a := range f.agents {
		if slices.Contains(adj.Remove, a.Name) {
			leave = append(leave, a)
		} else {
			stay = append(stay, a)
		}
	}
	// Nothing to do when every agent it removes crashed and was swept already.
	if err == nil && len(join)+len(leave) > 0 {
		err = f.resizeLocked(stay, join, aspan)
	}
	if err != nil {
		for _, a := range join {
			f.retire(a)
		}
		aspan.Event("rollback")
		return err
	}
	for _, a := range leave {
		f.retire(a)
	}
	return nil
}

// resizeLocked is the fleet's one change of who trains: stay keep training,
// in rank order, and join follow them, each installing the state of the
// source in stay that the replication plan gives it. Agents not in stay
// leave. All or nothing: the new count must divide the total batch (a crash
// since a request may have shrunk the fleet); the new placement is reserved
// (with a Cluster, the first n free GPUs in deterministic tree order, the
// fleet's own counting as free, so survivors keep their GPUs and joiners
// take the next ones); every joiner installs; and only then do the group,
// the reservation and the agent list change. On error the fleet is as it
// was and the caller disposes of its joiners; after success the caller
// retires or parks the agents that left. Callers hold f.mu or own f
// exclusively (construction).
func (f *Fleet) resizeLocked(stay, join []*Agent, parent *telemetry.Span) (err error) {
	n := len(stay) + len(join)
	if err = checkBatch(f.cfg.TotalBatch, n); err != nil {
		return err
	}
	group, err := collective.NewGroup(n)
	if err != nil {
		return err
	}
	// The group's telemetry label is the widest link between two of its GPUs.
	var gpus []*topology.GPU
	link := inprocLink
	if cl := f.cfg.Cluster; cl != nil {
		cl.Release(f.gpus)
		defer func() {
			if err != nil { // give the new GPUs back and re-reserve the old, just freed
				cl.Release(gpus)
				_, _ = cl.ReserveSpecific(topology.IDsOf(f.gpus)) // cannot fail: the cluster is not shared between goroutines
			}
		}()
		if gpus, err = cl.Reserve(n); err != nil {
			return err
		}
		widest := topology.L1
		for i, a := range gpus {
			for _, b := range gpus[i+1:] {
				widest = max(widest, topology.Link(a.ID, b.ID))
			}
		}
		link = widest.String()
	}
	if len(join) > 0 {
		if err = f.replicateLocked(stay, join, topology.IDsOf(gpus), parent); err != nil {
			return err
		}
	}
	group.SetTelemetry(f.tr, f.cfg.Metrics, f.clk, link)
	if f.group != nil {
		f.group.Close()
	}
	f.agents, f.group, f.gpus = slices.Concat(stay, join), group, gpus
	return nil
}

// replicateLocked is the paper's concurrent IO-free replication (Section
// IV): every target copies the whole training state straight out of one
// source agent's arena, on its own goroutine, while the sources sit idle
// under f.mu. ids places sources then targets on GPUs; with them the
// replication plan picks each target's nearest source and says which pairs
// share a contended link and therefore run back to back, the rest running
// concurrently. Without a Cluster (empty ids) sources are taken round-robin
// and nothing contends. A non-nil parent makes every install a traced
// remote child of it.
func (f *Fleet) replicateLocked(sources, targets []*Agent, ids []topology.GPUID, parent *telemetry.Span) error {
	size := int64(8 * len(sources[0].rep.State()))
	plan := &replication.Plan{Pairs: make([]replication.Pair, len(targets)), GPUBytes: size}
	if len(ids) > 0 {
		var err error
		if plan, err = replication.NewPlan(ids[:len(sources)], ids[len(sources):], size, 0); err != nil {
			return err
		}
	}
	var tr *telemetry.Recorder
	if parent != nil {
		tr = f.tr
	}
	return plan.Run(func(i int, pair replication.Pair) error {
		src, link := sources[i%len(sources)], inprocLink
		if len(ids) > 0 {
			src, link = sources[slices.Index(ids, pair.Source)], pair.Level.String()
		}
		if err := targets[i].install(src.rep.State(), src.Name, link, tr, parent.Context()); err != nil {
			return fmt.Errorf("worker: install into %s from %s: %w", targets[i].Name, src.Name, err)
		}
		return nil
	})
}

// sweepDeadLocked excises crashed agents before dispatch: a killed rank
// would never join the collective and wedge every other rank, so the fleet
// resizes to the survivors and parks the dead agents' rigs. Callers hold
// f.mu.
func (f *Fleet) sweepDeadLocked() error {
	var live, dead []*Agent
	for _, a := range f.agents {
		if a.alive() {
			live = append(live, a)
		} else {
			dead = append(dead, a)
		}
	}
	if len(dead) == 0 {
		return nil
	}
	if len(live) == 0 {
		return fmt.Errorf("worker: all agents crashed")
	}
	if err := f.resizeLocked(live, nil, nil); err != nil {
		return err
	}
	for _, a := range dead {
		<-a.done // killed between commands, so its goroutine is on its way out
		f.parkLocked(a)
	}
	return nil
}

// CrashWorker abruptly kills the named active agent, as a process crash
// would: its goroutine exits without draining the mailbox, its bus endpoint
// (if any) disappears, and the fleet does not change until the next Step
// sweeps it out. Taking the fleet lock serializes the kill with Step, so an
// agent never dies mid-collective.
func (f *Fleet) CrashWorker(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, a := range f.agents {
		if a.Name == name {
			if !a.alive() {
				return fmt.Errorf("worker: %q already crashed", name)
			}
			a.kill()
			f.cfg.Bus.Remove(name)
			f.mWorkerCrashes.Inc()
			f.flight.RecordEvent("fleet-lead", "crash:"+name, f.clk.Now())
			f.flight.DumpNow("worker-crash " + name)
			return nil
		}
	}
	return fmt.Errorf("worker: crash target %q is not an active agent", name)
}

// RejoinWorker restarts a previously crashed worker under its old name: a
// fresh agent starts under that name, on a spare rig when the fleet has one,
// receives the current replica state from a surviving agent, and is folded
// back into the group. A refused rejoin leaves the fleet as it was.
func (f *Fleet) RejoinWorker(name string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.sweepDeadLocked(); err != nil {
		return err
	}
	for _, a := range f.agents {
		if a.Name == name {
			return fmt.Errorf("worker: %q is still active", name)
		}
	}
	if _, ok := f.spawned[name]; ok {
		return fmt.Errorf("worker: %q is awaiting admission", name)
	}
	a, err := f.startOn(name, f.takeSpareLocked(), true, nil)
	if err != nil {
		return err
	}
	if err := f.resizeLocked(f.agents, []*Agent{a}, nil); err != nil {
		f.retire(a)
		return err
	}
	f.mWorkerRejoins.Inc()
	return nil
}

// CrashAM kills the application master: its service endpoint leaves the bus
// and coordination calls start failing (Step degrades to skips). The dead
// incarnation's handle is returned so callers can verify it is fenced off
// once a successor recovers from the store. The persisted state machine
// survives in the store.
func (f *Fleet) CrashAM() (*coord.AM, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.am == nil {
		return nil, fmt.Errorf("worker: AM already down")
	}
	f.amSvc.Close()
	old := f.am
	f.am = nil
	f.mAMCrashes.Inc()
	f.flight.RecordEvent("fleet-am", "am-crash", f.clk.Now())
	f.flight.DumpNow("am-crash")
	return old, nil
}

// RecoverAM starts a successor AM incarnation: it re-reads the persisted
// state machine from the store and takes over via CAS, fencing the dead
// incarnation (any write it might still attempt fails with coord.ErrFenced).
// The service re-registers under the same bus name.
func (f *Fleet) RecoverAM() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.am != nil {
		return fmt.Errorf("worker: AM is not down")
	}
	am, err := coord.Recover("fleet", f.store)
	if err != nil {
		return err
	}
	// Joiners' bring-up goroutines may be retrying ReportReady against
	// fleet-am right now: the service has its tracer before it has an endpoint.
	svc, err := coord.NewServiceWith(f.ctx, am, f.cfg.Bus, "fleet-am", f.tr)
	if err != nil {
		return err
	}
	f.am = am
	f.amSvc = svc
	f.mAMRecoveries.Inc()
	f.flight.RecordEvent("fleet-am", "am-recover", f.clk.Now())
	return nil
}

// AMDown reports whether the AM is currently crashed.
func (f *Fleet) AMDown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.am == nil
}

// SetTotalBatch changes the fleet's total batch size by a factor k and the
// learning rate with it, from the current rate (mid-ramp included) to k
// times that: linearly over rampIters iterations when progressive is true
// (the progressive linear scaling rule), at once otherwise. The new batch
// must be divisible by the live worker count: crashed agents are swept
// first.
func (f *Fleet) SetTotalBatch(tbs, rampIters int, progressive bool) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if err := f.sweepDeadLocked(); err != nil {
		return err
	}
	if err := checkBatch(tbs, len(f.agents)); err != nil {
		return err
	}
	k := float64(tbs) / float64(f.cfg.TotalBatch)
	lr0 := f.lrSched.At(f.iter)
	if !progressive {
		rampIters = 0
	}
	sched, err := scaling.NewLRSchedule(lr0, lr0*k, f.iter, rampIters)
	if err != nil {
		return err
	}
	f.cfg.TotalBatch, f.lrSched = tbs, sched
	return nil
}

// ForceLR pins the learning rate to lr from the current iteration on,
// dropping any ramp in progress. Figure 5's "Default" configuration uses it
// for naive weak scaling: a larger batch at the base rate.
func (f *Fleet) ForceLR(lr float64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	sched, err := scaling.NewLRSchedule(lr, lr, f.iter, 0)
	if err != nil {
		return err
	}
	f.lrSched = sched
	return nil
}

// LR returns the learning rate the next step will use.
func (f *Fleet) LR() float64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.lrSched.At(f.iter)
}

// TotalBatch returns the current total batch size.
func (f *Fleet) TotalBatch() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.cfg.TotalBatch
}

// Diverged reports whether training has left the numerically stable region:
// a NaN or infinity in agent 0's parameters.
func (f *Fleet) Diverged() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, p := range f.agents[0].rep.Net.Params() {
		if p.HasNaN() {
			return true
		}
	}
	return false
}

// Evaluate measures agent 0's replica on a dataset.
func (f *Fleet) Evaluate(ds *data.Dataset) (loss, acc float64, err error) {
	x, y, err := ds.Batch(0, ds.N())
	if err != nil {
		return 0, 0, err
	}
	// Evaluation runs on the controller; the agent's net is only touched
	// during steps, which hold the fleet lock, so a direct forward under it
	// is safe.
	f.mu.Lock()
	defer f.mu.Unlock()
	a := f.agents[0]
	out, err := a.rep.Net.Forward(x)
	if err != nil {
		return 0, 0, err
	}
	loss, _, err = a.rep.Net.SoftmaxLoss(out, y)
	if err != nil {
		return 0, 0, err
	}
	acc, err = nn.Accuracy(out, y)
	return loss, acc, err
}

// ReplicasConsistent checks the data-parallel invariant across agents:
// every replica holds the same parameters and optimizer state. After a
// step it holds by construction — each element is updated by one rank and
// copied to the others (ddp.Reducer.BackwardStep) — so divergence in the
// update itself shows in the sequential-reference tests instead. The
// arenas are compared in place; under f.mu no step is writing them.
func (f *Fleet) ReplicasConsistent() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	ref := f.agents[0].rep.State()
	for _, a := range f.agents[1:] {
		if !slices.Equal(a.rep.State(), ref) {
			return false
		}
	}
	return true
}

// Close stops all agents (including spawned-but-unadmitted ones) and any
// in-flight bring-up goroutines, then waits for all of them to exit —
// after Close returns the fleet owns no goroutines. A fleet-created bus is
// closed too; an injected bus is left to its owner.
// Close is idempotent and safe to call concurrently with ctx cancellation.
func (f *Fleet) Close() {
	f.mu.Lock()
	if f.closed {
		f.mu.Unlock()
		return
	}
	f.closed = true
	// Cancel first so the joiners' goroutines unblock.
	f.cancel()
	var names []string
	for _, a := range f.agents {
		a.stop()
		names = append(names, a.Name)
	}
	f.agents, f.spare = nil, nil
	pending := f.spawned
	f.spawned = nil
	if f.group != nil {
		f.group.Close()
	}
	if f.cfg.Cluster != nil {
		f.cfg.Cluster.Release(f.gpus)
		f.gpus = nil
	}
	f.mu.Unlock()
	f.wg.Wait()
	// The joiners' goroutines have exited: every pending agent that was
	// going to start has, and no endpoint can come back. Stop those, and take
	// the agents', admitted or not, off the bus (an injected one outlives the
	// fleet).
	for name, j := range pending {
		if j.agent != nil {
			j.agent.stop()
			names = append(names, name)
		}
	}
	for _, name := range names {
		f.cfg.Bus.Remove(name)
	}
	f.lifeSpan.Event("stop")
	f.lifeSpan.End()
	if f.ownsBus {
		f.cfg.Bus.Close()
	}
}
