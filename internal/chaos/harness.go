package chaos

import (
	"fmt"
	"strings"
	"time"

	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/topology"
	"github.com/elan-sys/elan/internal/transport"
	"github.com/elan-sys/elan/internal/worker"
)

// Config sizes the rig the schedule runs against. The zero value selects a
// 4-worker fleet with a total batch of 24 — divisible by every worker count
// the schedule generator can reach, so elastic repartitioning never fails
// on divisibility.
type Config struct {
	Workers    int     // default 4
	TotalBatch int     // default 24
	LR         float64 // default 0.05
	Seed       int64   // model/data seed (not the fault seed); default 21
	Schedule   Schedule
	Metrics    *telemetry.Registry // optional; harness counters land here
	Tracer     telemetry.Tracer    // optional
	// Cluster places the fleet on simulated GPUs: group reconstruction
	// after every crash, rejoin and adjustment then re-reserves GPUs, which
	// drive the replication plan and the link labels of the fleet's spans.
	// The reduction is the same ring with or without one.
	Cluster *topology.Cluster
	// BucketElems enables gradient bucketing in the fleet's reducers.
	BucketElems int
	// Flight, when set, receives every finished span from the fleet's
	// tracer (if that tracer is a *telemetry.Recorder) plus a chaos marker
	// event per injected fault, and is dumped automatically on each fault
	// so the recent span history around a disruption survives.
	Flight *telemetry.FlightRecorder
	// Checkpoints, when non-nil, wires the fleet to a delta checkpoint
	// store and Run saves into it every CheckpointEvery iterations —
	// including, under an injected store crash, mid-save failures whose
	// recovery the delta tests assert on. CheckpointEvery <= 0 disables
	// the periodic saves (explicit SaveCheckpoint calls still work).
	Checkpoints     *checkpoint.DeltaStore
	CheckpointEvery int
}

// Harness owns a fully wired rig — sim clock, bus with the fault hook
// installed, fleet — and replays the schedule against it. The exported
// fields are live handles for tests and drivers (request a scale-out
// mid-run, assert on fleet state).
type Harness struct {
	Fleet *worker.Fleet
	Bus   *transport.Bus
	Sim   *clock.Sim

	cfg      Config
	inj      *Injector
	stopAuto func()

	iter      int // absolute iteration counter, survives across Run calls
	cursor    int // next schedule fault to apply
	windows   []window
	events    []Event
	losses    []float64
	faultErrs []string
	oldAMs    []*coord.AM
	mFaults   *telemetry.Counter

	ckptSaves int      // committed periodic delta saves
	ckptErrs  []string // failed periodic saves (e.g. injected store crashes)
}

// window is an open timed fault awaiting its end iteration.
type window struct {
	expire int
	fault  Fault
}

// New builds the rig and installs the schedule. Close releases it.
func New(cfg Config) (*Harness, error) {
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.TotalBatch <= 0 {
		cfg.TotalBatch = 24
	}
	if cfg.LR == 0 {
		cfg.LR = 0.05
	}
	if cfg.Seed == 0 {
		cfg.Seed = 21
	}
	sim := clock.NewSim(time.Unix(0, 0))
	stopAuto := sim.AutoAdvance(0)
	busCfg := transport.DefaultBusConfig()
	busCfg.Clock = sim
	busCfg.Tracer = cfg.Tracer
	busCfg.Metrics = cfg.Metrics
	bus := transport.NewBus(busCfg)
	inj := NewInjector(cfg.Schedule.Seed)
	bus.SetFaultHook(inj.Fate)
	ds, err := data.GenGaussianMixture(cfg.Seed, 1024, 4, 3)
	if err != nil {
		stopAuto()
		bus.Close()
		return nil, err
	}
	fleet, err := worker.NewFleet(worker.FleetConfig{
		Dataset:     ds,
		LayerSizes:  []int{4, 16, 3},
		Workers:     cfg.Workers,
		TotalBatch:  cfg.TotalBatch,
		LR:          cfg.LR,
		Momentum:    0.9,
		Seed:        cfg.Seed,
		Bus:         bus,
		Clock:       sim,
		Tracer:      cfg.Tracer,
		Metrics:     cfg.Metrics,
		Cluster:     cfg.Cluster,
		BucketElems: cfg.BucketElems,
		Flight:      cfg.Flight,
		Checkpoints: cfg.Checkpoints,
	})
	if err != nil {
		stopAuto()
		bus.Close()
		return nil, err
	}
	h := &Harness{
		Fleet:    fleet,
		Bus:      bus,
		Sim:      sim,
		cfg:      cfg,
		inj:      inj,
		stopAuto: stopAuto,
		mFaults:  cfg.Metrics.Counter("chaos_faults_injected_total"),
	}
	if err := fleet.Start(nil); err != nil {
		h.Close()
		return nil, err
	}
	return h, nil
}

// Run executes iters training iterations, applying scheduled faults as
// their iterations come due. The absolute iteration counter persists across
// calls, so callers can interleave Run with direct fleet operations (e.g.
// request a scale-out, then Run until it is admitted) without replaying
// faults.
func (h *Harness) Run(iters int) error {
	for end := h.iter + iters; h.iter < end; h.iter++ {
		h.applyDue()
		loss, err := h.Fleet.Step()
		if err != nil {
			return fmt.Errorf("chaos: step %d: %w", h.iter, err)
		}
		h.losses = append(h.losses, loss)
		h.maybeCheckpoint()
	}
	return nil
}

// maybeCheckpoint runs the periodic delta save. Save timing is a pure
// function of the iteration counter, so the ckpt.save log lines stay
// byte-comparable across same-schedule runs; a failed save (a fault, not a
// schedule event) is reported, never logged.
func (h *Harness) maybeCheckpoint() {
	every := h.cfg.CheckpointEvery
	if h.cfg.Checkpoints == nil || every <= 0 || (h.iter+1)%every != 0 {
		return
	}
	h.log("ckpt.save")
	if _, err := h.Fleet.SaveCheckpoint(); err != nil {
		h.ckptErrs = append(h.ckptErrs, err.Error())
		return
	}
	h.ckptSaves++
}

// applyDue closes expired fault windows, then applies every scheduled fault
// whose iteration has arrived. Both sets — and therefore the event log —
// are pure functions of the schedule.
func (h *Harness) applyDue() {
	keep := h.windows[:0]
	for _, w := range h.windows {
		if w.expire > h.iter {
			keep = append(keep, w)
			continue
		}
		switch w.fault.Kind {
		case Partition:
			h.inj.Heal()
			h.log("net.heal")
		case DropBurst:
			h.inj.SetLoss(0)
			h.log("net.drop.end")
		case SlowLink:
			h.inj.SetSlow(w.fault.Target, 0)
			h.log("net.slow.end target=" + w.fault.Target)
		}
	}
	h.windows = keep
	for h.cursor < len(h.cfg.Schedule.Faults) && h.cfg.Schedule.Faults[h.cursor].Iter <= h.iter {
		f := h.cfg.Schedule.Faults[h.cursor]
		h.cursor++
		h.apply(f)
	}
}

// apply injects one fault. The event is logged from schedule fields alone;
// a runtime refusal (e.g. crashing an already-crashed worker in a
// hand-written schedule) is recorded in the report, not the log.
func (h *Harness) apply(f Fault) {
	h.mFaults.Inc()
	// Mark the fault on the flight recorder's timeline and freeze the recent
	// span history before the fault lands (nil-safe; no-op when unset). The
	// dump itself depends on goroutine scheduling and must never feed the
	// byte-compared event log.
	h.cfg.Flight.RecordEvent("chaos", f.Kind.String()+" iter="+fmt.Sprint(f.Iter), h.Sim.Now())
	h.cfg.Flight.DumpNow(f.Kind.String())
	switch f.Kind {
	case WorkerCrash:
		h.log("worker.crash target=" + f.Target)
		h.noteErr(h.Fleet.CrashWorker(f.Target))
	case WorkerRestart:
		h.log("worker.restart target=" + f.Target)
		h.noteErr(h.Fleet.RejoinWorker(f.Target))
	case AMCrash:
		h.log("am.crash")
		old, err := h.Fleet.CrashAM()
		h.noteErr(err)
		if old != nil {
			h.oldAMs = append(h.oldAMs, old)
		}
	case AMRecover:
		h.log("am.recover")
		h.noteErr(h.Fleet.RecoverAM())
	case Partition:
		h.log(fmt.Sprintf("net.partition a=%s b=%s dur=%d",
			strings.Join(f.A, ","), strings.Join(f.B, ","), f.Dur))
		h.inj.Partition(f.A, f.B)
		h.windows = append(h.windows, window{expire: f.Iter + f.Dur, fault: f})
	case DropBurst:
		h.log(fmt.Sprintf("net.drop rate=%.3f dur=%d", f.Rate, f.Dur))
		h.inj.SetLoss(f.Rate)
		h.windows = append(h.windows, window{expire: f.Iter + f.Dur, fault: f})
	case SlowLink:
		h.log(fmt.Sprintf("net.slow target=%s delay=%s dur=%d", f.Target, f.Delay, f.Dur))
		h.inj.SetSlow(f.Target, f.Delay)
		h.windows = append(h.windows, window{expire: f.Iter + f.Dur, fault: f})
	default:
		h.noteErr(fmt.Errorf("chaos: unknown fault kind %v", f.Kind))
	}
}

func (h *Harness) log(detail string) {
	h.events = append(h.events, Event{Iter: h.iter, Detail: detail})
}

func (h *Harness) noteErr(err error) {
	if err != nil {
		h.faultErrs = append(h.faultErrs, err.Error())
	}
}

// Events returns a copy of the deterministic fault-event log.
func (h *Harness) Events() []Event {
	return append([]Event(nil), h.events...)
}

// OldAMs returns the crashed AM incarnations, for fencing assertions.
func (h *Harness) OldAMs() []*coord.AM {
	return append([]*coord.AM(nil), h.oldAMs...)
}

// Report summarizes runtime outcomes. Unlike the event log these depend on
// scheduling nondeterminism and must not be compared byte-for-byte.
type Report struct {
	Iterations       int
	Events           int
	FaultErrors      []string
	FinalWorkers     int
	FinalLoss        float64
	Consistent       bool
	AMDown           bool
	CheckpointSaves  int
	CheckpointErrors []string
	CheckpointSeq    int64
}

// Report captures the current runtime outcome summary.
func (h *Harness) Report() Report {
	r := Report{
		Iterations:       h.iter,
		Events:           len(h.events),
		FaultErrors:      append([]string(nil), h.faultErrs...),
		FinalWorkers:     h.Fleet.NumWorkers(),
		Consistent:       h.Fleet.ReplicasConsistent(),
		AMDown:           h.Fleet.AMDown(),
		CheckpointSaves:  h.ckptSaves,
		CheckpointErrors: append([]string(nil), h.ckptErrs...),
	}
	if h.cfg.Checkpoints != nil {
		r.CheckpointSeq = h.Fleet.CheckpointSeq()
	}
	if len(h.losses) > 0 {
		r.FinalLoss = h.losses[len(h.losses)-1]
	}
	return r
}

// Close tears the rig down: fleet, bus, then the sim-clock driver (last, so
// goroutines sleeping on virtual time can still be woken to exit).
func (h *Harness) Close() {
	h.Fleet.Close()
	h.Bus.Close()
	h.stopAuto()
}
