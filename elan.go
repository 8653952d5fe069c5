// Package elan is the public API of the Elan reproduction: a generic and
// efficient elastic training system for data-parallel deep learning with
// collective communication (Xie et al., ICDCS 2020), rebuilt in pure Go on
// simulated hardware substrates.
//
// The package re-exports the system's main entry points:
//
//   - Cluster construction and hardware topology (NewCluster, Geometry);
//   - the simulated elastic job with Elan's adjustment mechanisms
//     (NewJob, Job.ScaleOut / ScaleIn / Migrate);
//   - real in-process elastic training on the pure-Go MLP substrate, the
//     resident worker-agent runtime (NewFleet, Fleet.Step /
//     RequestScaleOut / RequestScaleIn / SetTotalBatch);
//   - the hybrid scaling mechanism (NewHybridMechanism, LRSchedule);
//   - the analytic performance model (NewPerfModel);
//   - the elastic scheduling simulator (RunSchedule) and trace generation
//     (GenerateTrace);
//   - observability: one tracer type, TraceRecorder (NewTraceRecorder;
//     nil is tracing off), exported with WriteChromeTrace, plus metrics
//     (NewMetricsRegistry) and the always-on flight recorder
//     (NewFlightRecorder).
//
// See the examples/ directory for runnable walkthroughs and DESIGN.md for
// the system inventory and the experiment index.
package elan

import (
	"io"
	"time"

	"github.com/elan-sys/elan/internal/baseline"
	"github.com/elan-sys/elan/internal/checkpoint"
	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/core"
	"github.com/elan-sys/elan/internal/data"
	"github.com/elan-sys/elan/internal/engine"
	"github.com/elan-sys/elan/internal/models"
	"github.com/elan-sys/elan/internal/perfmodel"
	"github.com/elan-sys/elan/internal/scaling"
	"github.com/elan-sys/elan/internal/sched"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/topology"
	"github.com/elan-sys/elan/internal/trace"
	"github.com/elan-sys/elan/internal/worker"
)

// Re-exported core types. The underlying implementations live in internal
// packages; these aliases are the supported public surface.
type (
	// Cluster is the hardware topology and allocation state.
	Cluster = topology.Cluster
	// Geometry describes a cluster's shape.
	Geometry = topology.Geometry
	// GPUID identifies one GPU in the cluster tree.
	GPUID = topology.GPUID
	// GPU is one accelerator.
	GPU = topology.GPU
	// Model is a DL model with its calibration constants.
	Model = models.Model
	// Job is the simulated elastic training job.
	Job = core.Job
	// JobConfig configures a Job.
	JobConfig = core.JobConfig
	// AdjustmentReport describes one resource adjustment.
	AdjustmentReport = core.AdjustmentReport
	// SystemCosts calibrates fixed system costs.
	SystemCosts = core.SystemCosts
	// Dataset is an in-memory labeled dataset.
	Dataset = data.Dataset
	// HybridMechanism is the hybrid scaling decision engine.
	HybridMechanism = scaling.Mechanism
	// ScalingDecision is one hybrid-scaling outcome.
	ScalingDecision = scaling.Decision
	// LRSchedule is the progressive linear scaling rule.
	LRSchedule = scaling.LRSchedule
	// PerfModel predicts data-parallel training performance.
	PerfModel = perfmodel.Perf
	// AdjustmentKind classifies adjustments.
	AdjustmentKind = coord.Kind
	// SchedulePolicy selects the scheduling discipline.
	SchedulePolicy = sched.Policy
	// ScheduleSystem models an elasticity substrate's costs.
	ScheduleSystem = sched.System
	// ScheduleResult aggregates one scheduling run.
	ScheduleResult = sched.Result
	// TraceJob is one synthetic trace entry.
	TraceJob = trace.Job
	// TraceConfig controls trace generation.
	TraceConfig = trace.Config
	// SRBaseline is the Shutdown-&-Restart baseline.
	SRBaseline = baseline.SR
	// LitzBaseline is the executor-based baseline.
	LitzBaseline = baseline.Litz
	// Fleet is real in-process elastic training, the resident worker-agent
	// runtime: persistent worker goroutines coordinating over the message
	// bus.
	Fleet = worker.Fleet
	// FleetConfig configures a Fleet.
	FleetConfig = worker.FleetConfig
	// Engine is the framework contract: a training Step, plus State() and
	// Install(), the two calls the runtime replicates and checkpoints
	// through. StaticEngine and DynamicEngine are the two demo integrations.
	Engine = engine.Engine
	// StaticEngine is the Caffe-like precompiled engine.
	StaticEngine = engine.StaticEngine
	// DynamicEngine is the PyTorch-like eager engine.
	DynamicEngine = engine.DynamicEngine
	// Clock is the injectable time source used across the runtime. All
	// timeout, backoff and retry logic goes through a Clock, so tests
	// and simulations can run on virtual time (see NewSimClock).
	Clock = clock.Clock
	// SimClock is a discrete-event virtual clock implementing Clock.
	SimClock = clock.Sim
	// Span is one traced operation; safe (and free) on a nil receiver.
	Span = telemetry.Span
	// SpanRecord is a completed span as snapshotted by a TraceRecorder.
	SpanRecord = telemetry.SpanRecord
	// TraceRecorder is the tracer: it collects spans against an injected
	// Clock. Inject one via FleetConfig.Tracer; a nil *TraceRecorder is
	// tracing off at zero cost.
	TraceRecorder = telemetry.Recorder
	// MetricsRegistry holds the runtime's named counters, gauges and
	// histograms; inject via FleetConfig.Metrics.
	MetricsRegistry = telemetry.Registry
	// TelemetryServer serves /metrics and /healthz over HTTP.
	TelemetryServer = telemetry.DebugServer
	// TraceContext is a span's wire identity (trace + span + process); it
	// travels inside transport messages so one adjustment renders as a
	// single cross-process span tree.
	TraceContext = telemetry.TraceContext
	// FlightRecorder is the always-on black box: a fixed-capacity ring of
	// recent span/event records with an allocation-free record path, dumped
	// on faults and crashes. Attach via FleetConfig.Flight or
	// TraceRecorder.SetFlightRecorder.
	FlightRecorder = telemetry.FlightRecorder
	// FlightRecord is one slot of the flight ring.
	FlightRecord = telemetry.FlightRecord
	// AttribSummary is a trace's per-step time attribution: compute/comm/
	// coord/stall totals per rank step plus straggler flags.
	AttribSummary = telemetry.AttribSummary
)

// Adjustment kinds.
const (
	ScaleOut = coord.ScaleOut
	ScaleIn  = coord.ScaleIn
	Migrate  = coord.Migrate
)

// Scheduling policies.
const (
	FIFO            = sched.FIFO
	Backfill        = sched.Backfill
	ElasticFIFO     = sched.ElasticFIFO
	ElasticBackfill = sched.ElasticBackfill
)

// DefaultGeometry returns the paper's testbed shape: 8 nodes x 8 GPUs.
func DefaultGeometry() Geometry { return topology.DefaultGeometry() }

// ParseGeometry decodes a JSON cluster description (see
// topology.GeometryConfig for the schema).
func ParseGeometry(data []byte) (Geometry, error) { return topology.ParseGeometry(data) }

// EncodeGeometry renders a geometry as its JSON config form.
func EncodeGeometry(g Geometry) ([]byte, error) { return topology.EncodeGeometry(g) }

// NewCluster materializes a cluster from a geometry.
func NewCluster(g Geometry) (*Cluster, error) { return topology.NewCluster(g) }

// Models returns the evaluation model zoo (Table I plus ResNet-50).
func Models() []Model { return models.Zoo() }

// ModelByName looks a model up by name (e.g. "ResNet-50").
func ModelByName(name string) (Model, error) { return models.ByName(name) }

// NewPerfModel returns the default-calibrated performance model.
func NewPerfModel() *PerfModel { return perfmodel.Default() }

// NewJob builds a simulated elastic job.
func NewJob(cfg JobConfig) (*Job, error) { return core.NewJob(cfg) }

// DefaultSystemCosts returns the system-cost calibration used throughout
// the experiments.
func DefaultSystemCosts() SystemCosts { return core.DefaultSystemCosts() }

// GenDataset generates the synthetic Gaussian-mixture classification
// dataset used by the live training experiments.
func GenDataset(seed int64, n, features, classes int) (*Dataset, error) {
	return data.GenGaussianMixture(seed, n, features, classes)
}

// NewHybridMechanism builds the hybrid scaling mechanism with the default
// performance model and a 100-iteration learning-rate ramp.
func NewHybridMechanism() (*HybridMechanism, error) {
	return scaling.New(scaling.DefaultConfig())
}

// NewLRSchedule builds a progressive linear scaling rule schedule: the
// learning rate moves from lr0 to lrT linearly over rampIters iterations
// starting at iteration t0.
func NewLRSchedule(lr0, lrT float64, t0, rampIters int) (*LRSchedule, error) {
	return scaling.NewLRSchedule(lr0, lrT, t0, rampIters)
}

// GenerateTrace produces a synthetic Sensetime-style job trace.
func GenerateTrace(cfg TraceConfig) ([]TraceJob, error) { return trace.Generate(cfg) }

// DefaultTraceConfig matches the paper's two-day, 128-GPU setup.
func DefaultTraceConfig() TraceConfig { return trace.DefaultConfig() }

// IdealScheduleSystem returns the zero-cost elasticity substrate.
func IdealScheduleSystem() ScheduleSystem { return sched.IdealSystem{} }

// ElanScheduleSystem returns the Elan cost model for scheduling.
func ElanScheduleSystem(seed int64) ScheduleSystem { return sched.NewElanSystem(seed) }

// SRScheduleSystem returns the Shutdown-&-Restart cost model.
func SRScheduleSystem(seed int64) ScheduleSystem { return sched.NewSRSystem(seed) }

// RunSchedule simulates a trace under a policy and elasticity system on a
// cluster of gpus GPUs.
func RunSchedule(policy SchedulePolicy, system ScheduleSystem, gpus int, jobs []TraceJob) (*ScheduleResult, error) {
	cfg := sched.DefaultConfig(policy, system)
	cfg.GPUs = gpus
	return sched.Run(cfg, jobs)
}

// NewSRBaseline builds the Shutdown-&-Restart baseline with default
// calibrations.
func NewSRBaseline(seed int64) *SRBaseline {
	return baseline.NewSR(core.DefaultSystemCosts(), checkpoint.DefaultFSModel(), seed)
}

// NewLitzBaseline builds the executor-based baseline with the given
// executors-per-worker (Litz-2, Litz-4).
func NewLitzBaseline(executors int) (*LitzBaseline, error) {
	return baseline.NewLitz(baseline.DefaultLitzConfig(executors), perfmodel.Default())
}

// TraceUtilization replays a trace and returns the Figure 1-style
// (hours, utilization) series.
func TraceUtilization(jobs []TraceJob, gpus int, step time.Duration) (hours, utils []float64, err error) {
	return trace.UtilizationSeries(jobs, gpus, step)
}

// NewFleet builds the resident worker-agent runtime.
func NewFleet(cfg FleetConfig) (*Fleet, error) { return worker.NewFleet(cfg) }

// WallClock returns the real-time Clock (the default everywhere a config's
// Clock field is nil).
func WallClock() Clock { return clock.Wall{} }

// NewSimClock returns a virtual clock starting at epoch. Inject it via
// FleetConfig.Clock to run timeout and retry logic
// on deterministic discrete-event time; drive it with Advance, or start
// AutoAdvance to have it jump to each next deadline automatically.
func NewSimClock(epoch time.Time) *SimClock { return clock.NewSim(epoch) }

// NewTraceRecorder builds a span recorder reading time from clk (nil
// selects the wall clock) and retaining at most maxSpans completed spans
// (0 selects the default). Pass it as the Tracer of a FleetConfig and
// export its Snapshot with WriteChromeTrace.
func NewTraceRecorder(clk Clock, maxSpans int) *TraceRecorder {
	return telemetry.NewRecorder(clk, maxSpans)
}

// NewMetricsRegistry builds an empty metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return telemetry.NewRegistry() }

// WriteChromeTrace renders spans as Chrome trace-event JSON, loadable in
// Perfetto (ui.perfetto.dev) or chrome://tracing.
func WriteChromeTrace(w io.Writer, spans []SpanRecord) error {
	return telemetry.WriteChromeTrace(w, spans)
}

// NewFlightRecorder pre-allocates a flight ring of the given capacity
// (<= 0 selects the default) and its dump image. Recording into it and
// DumpNow never allocate; LastDump reads the last dump back, and
// WriteFlightDump renders it.
func NewFlightRecorder(capacity int) *FlightRecorder {
	return telemetry.NewFlightRecorder(capacity)
}

// WriteFlightDump renders a flight-recorder dump as a readable postmortem
// log, oldest record first.
func WriteFlightDump(w io.Writer, reason string, recs []FlightRecord) error {
	return telemetry.WriteFlightDump(w, reason, recs)
}

// Attribute folds a trace's per-rank span trees into compute/comm/coord/
// stall phase totals per step and flags stragglers against the fleet P95.
func Attribute(spans []SpanRecord) AttribSummary { return telemetry.Attribute(spans) }

// WriteAttribution renders an attribution summary as a per-step table plus
// fleet totals.
func WriteAttribution(w io.Writer, a AttribSummary) error {
	return telemetry.WriteAttribution(w, a)
}

// WriteSpans serializes raw span records as JSON — the interchange format
// between elan-live -spans-out and elan-trace -attrib.
func WriteSpans(w io.Writer, spans []SpanRecord) error { return telemetry.WriteSpans(w, spans) }

// ReadSpans parses a WriteSpans file.
func ReadSpans(r io.Reader) ([]SpanRecord, error) { return telemetry.ReadSpans(r) }

// NewTelemetryServer serves reg's /metrics (Prometheus text format) and
// /healthz on addr (e.g. "localhost:9090"; port 0 picks a free port —
// read it back from Addr).
func NewTelemetryServer(addr string, reg *MetricsRegistry) (*TelemetryServer, error) {
	return telemetry.NewDebugServer(addr, reg)
}

// NewStaticEngine builds the Caffe-like precompiled training engine.
func NewStaticEngine(seed int64, sizes []int, lr, momentum float64) (*StaticEngine, error) {
	return engine.NewStatic(seed, sizes, lr, momentum)
}

// NewDynamicEngine builds the PyTorch-like eager engine with one or more
// structural branches.
func NewDynamicEngine(seed int64, branchSizes [][]int, lr, momentum float64) (*DynamicEngine, error) {
	return engine.NewDynamic(seed, branchSizes, lr, momentum)
}
