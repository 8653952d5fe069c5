package worker_test

// The live-runtime tests, written for core.LiveJob (the second copy of the
// elastic runtime, long gone) and kept under their names. They drive Fleet
// from outside the package, through its public API only: a scale action is
// a request that the coordination of a later Step applies, and the training
// state is read back through the checkpoint store the fleet saves into.

import (
	"bytes"
	"math"
	"slices"
	"testing"
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

func liveDataset(t *testing.T, n int) *data.Dataset {
	t.Helper()
	d, err := data.GenGaussianMixture(17, n, 2, 3)
	if err != nil {
		t.Fatalf("GenGaussianMixture: %v", err)
	}
	return d
}

func liveConfig(t *testing.T, workers, tbs int) worker.FleetConfig {
	return worker.FleetConfig{Dataset: liveDataset(t, 2048), LayerSizes: []int{2, 24, 3},
		Workers: workers, TotalBatch: tbs, LR: 0.05, Momentum: 0.9, Seed: 7}
}

// live is a fleet on a bus of the test's own, with a probe on that bus that
// reads the AM's state: a scale-out then takes exactly one Step to apply.
type live struct {
	*worker.Fleet
	am *coord.Client
}

func newLive(t *testing.T, cfg worker.FleetConfig) *live {
	t.Helper()
	busCfg := transport.DefaultBusConfig()
	busCfg.Clock, busCfg.Tracer, busCfg.Metrics = cfg.Clock, cfg.Tracer, cfg.Metrics
	bus := transport.NewBus(busCfg)
	t.Cleanup(bus.Close)
	cfg.Bus = bus
	f, err := worker.NewFleet(cfg)
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	am, err := coord.NewClient(bus, "probe", "fleet-am")
	if err != nil {
		t.Fatalf("NewClient: %v", err)
	}
	return &live{f, am}
}

func liveJob(t *testing.T, workers, tbs int) *live {
	t.Helper()
	return newLive(t, liveConfig(t, workers, tbs))
}

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// tracedJob builds cfg's job on a simulated clock frozen at epoch, with a
// span recorder and a metrics registry on that clock.
func tracedJob(t *testing.T, cfg worker.FleetConfig) (*live, *clock.Sim, *telemetry.Recorder, *telemetry.Registry) {
	t.Helper()
	sim := clock.NewSim(epoch)
	rec, reg := telemetry.NewRecorder(sim, 0), telemetry.NewRegistry()
	cfg.Clock, cfg.Tracer, cfg.Metrics = sim, rec, reg
	return newLive(t, cfg), sim, rec, reg
}

// steps trains n iterations and returns the last loss.
func (l *live) steps(t *testing.T, n int) (loss float64) {
	t.Helper()
	for i := 0; i < n; i++ {
		var err error
		if loss, err = l.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	return loss
}

// scaleOut requests n more workers, waits without stepping until all of them
// have reported to the AM, and returns the error of the one Step that
// applies the adjustment.
func (l *live) scaleOut(t *testing.T, n int) error {
	t.Helper()
	if err := l.RequestScaleOut(n); err != nil {
		return err
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		st, err := l.am.AMState()
		if err == nil && st.State == coord.Ready {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("joiners never reported ready: %+v, %v", st, err)
		}
	}
	_, err := l.Step()
	return err
}

// committed reads the newest checkpoint in ds as a cold restore would: the
// runtime header and the state vector.
func committed(t *testing.T, ds *checkpoint.DeltaStore) ([]byte, []float64) {
	t.Helper()
	_, n, _ := ds.Head("fleet")
	state := make([]float64, n)
	h, _, err := ds.RestoreFrom("fleet", state, 0)
	if err != nil {
		t.Fatalf("RestoreFrom: %v", err)
	}
	return h, state
}

func sameBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func TestNewLiveJobValidation(t *testing.T) {
	d := liveDataset(t, 100)
	cases := []worker.FleetConfig{
		{Dataset: nil, LayerSizes: []int{2, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 0, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 3, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{5, 3}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 4}, Workers: 2, TotalBatch: 8, LR: 0.1},
		{Dataset: d, LayerSizes: []int{2, 3}, Workers: 2, TotalBatch: 8, LR: 0},
	}
	for i, cfg := range cases {
		if f, err := worker.NewFleet(cfg); err == nil {
			f.Close()
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestLiveTrainingConverges(t *testing.T) {
	lj := liveJob(t, 4, 64)
	first := lj.steps(t, 1)
	if last := lj.steps(t, 149); last >= first*0.7 {
		t.Fatalf("loss barely moved: %v -> %v", first, last)
	}
	_, acc, err := lj.Evaluate(liveDataset(t, 512))
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if acc < 0.6 {
		t.Fatalf("accuracy = %v, want >= 0.6", acc)
	}
	if lj.Iteration() != 150 {
		t.Fatalf("Iteration = %d", lj.Iteration())
	}
}

func TestLiveReplicasStayConsistent(t *testing.T) {
	lj := liveJob(t, 4, 32)
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas differ at init")
	}
	lj.steps(t, 20)
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas diverged during training")
	}
}

func TestLiveScaleOutPreservesState(t *testing.T) {
	lj := liveJob(t, 2, 32)
	lj.steps(t, 10)
	if err := lj.scaleOut(t, 2); err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	// The data-parallel invariant must hold right after replication: the
	// new workers carry the trained state, not fresh init.
	if lj.NumWorkers() != 4 || !lj.ReplicasConsistent() {
		t.Fatalf("workers = %d, replicas consistent %v after scale-out", lj.NumWorkers(), lj.ReplicasConsistent())
	}
	// And training continues.
	lj.steps(t, 10)
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas diverged after post-scale-out training")
	}
	if lj.Iteration() != 21 {
		t.Fatalf("Iteration = %d, want 21: 10, the admitting step, 10 (state carried over)", lj.Iteration())
	}
}

func TestLiveScaleOutValidation(t *testing.T) {
	lj := liveJob(t, 2, 32)
	if err := lj.RequestScaleOut(0); err == nil {
		t.Fatal("zero scale-out accepted")
	}
	if err := lj.RequestScaleOut(3); err == nil {
		t.Fatal("indivisible worker count accepted") // 32 % 5 != 0
	}
}

func TestLiveScaleIn(t *testing.T) {
	lj := liveJob(t, 4, 32)
	lj.steps(t, 5)
	if err := lj.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	lj.steps(t, 1) // a scale-in is Ready at once: this Step applies it
	if lj.NumWorkers() != 2 || !lj.ReplicasConsistent() {
		t.Fatalf("workers = %d, replicas consistent %v after scale-in", lj.NumWorkers(), lj.ReplicasConsistent())
	}
	lj.steps(t, 5)
	if err := lj.RequestScaleIn(5); err == nil {
		t.Fatal("removing more workers than exist accepted")
	}
	if err := lj.RequestScaleIn(0); err == nil {
		t.Fatal("zero scale-in accepted")
	}
}

// TestLiveElasticityMatchesStaticTraining: the headline correctness
// property. A job that scales 2 -> 4 -> 2 workers mid-training tracks a
// static job, because gradients are averaged over the same total batch drawn
// from the same serial cursor. (Floating-point summation order differs
// across group sizes, so the loss trajectories are compared loosely.)
func TestLiveElasticityMatchesStaticTraining(t *testing.T) {
	static, elastic := liveJob(t, 2, 32), liveJob(t, 2, 32)
	staticLoss := static.steps(t, 30)
	elastic.steps(t, 10)
	if err := elastic.scaleOut(t, 2); err != nil {
		t.Fatalf("scale-out: %v", err)
	}
	elastic.steps(t, 9)
	if err := elastic.RequestScaleIn(2); err != nil {
		t.Fatalf("RequestScaleIn: %v", err)
	}
	elasticLoss := elastic.steps(t, 10) // the first of them applies the scale-in
	// Both trained 30 iterations at TBS 32 over the same data order.
	if elastic.NumWorkers() != 2 || elastic.Iteration() != static.Iteration() {
		t.Fatalf("elastic job at %d workers, iteration %d; static at iteration %d",
			elastic.NumWorkers(), elastic.Iteration(), static.Iteration())
	}
	if ratio := elasticLoss / staticLoss; ratio > 1.5 || ratio < 0.6 {
		t.Fatalf("elastic loss %v too far from static loss %v", elasticLoss, staticLoss)
	}
}

func TestLiveSetTotalBatchProgressive(t *testing.T) {
	lj := liveJob(t, 2, 16)
	lj.steps(t, 5)
	lr0 := lj.LR()
	if err := lj.SetTotalBatch(32, 10, true); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	// Immediately after the change the LR has not jumped yet.
	if got := lj.LR(); lj.TotalBatch() != 32 || got > lr0*1.15 {
		t.Fatalf("TBS %d, LR %v -> %v right after the change", lj.TotalBatch(), lr0, got)
	}
	lj.steps(t, 12)
	// After the ramp the LR is doubled (k=2).
	if got, want := lj.LR(), lr0*2; got < want*0.99 || got > want*1.01 {
		t.Fatalf("LR after ramp = %v, want %v", got, want)
	}
	if err := lj.SetTotalBatch(33, 10, true); err == nil {
		t.Fatal("indivisible TBS accepted")
	}
}

func TestLiveSetTotalBatchImmediate(t *testing.T) {
	lj := liveJob(t, 2, 16)
	lr0 := lj.LR()
	if err := lj.SetTotalBatch(64, 100, false); err != nil {
		t.Fatalf("SetTotalBatch: %v", err)
	}
	// Immediate mode: LR jumps to 4x at once.
	if got, want := lj.LR(), lr0*4; got < want*0.99 || got > want*1.01 {
		t.Fatalf("immediate LR = %v, want %v", got, want)
	}
}

// TestLiveJobDeltaRoundTrip trains, saves, trains further, then restores —
// on the job that saved and on a fresh job on the same store. Both
// must land bit-identical on the checkpointed state. A save right after the
// restore shows it: the save publishes the lead arena as it is, and what
// ds.Restore then reads, header bytes and state, must equal the checkpoint
// bit for bit.
func TestLiveJobDeltaRoundTrip(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	cfg := liveConfig(t, 2, 8)
	cfg.Checkpoints = ds
	lj := newLive(t, cfg)
	lj.steps(t, 3)
	if st, err := lj.SaveCheckpoint(); err != nil || st.ChunksWritten == 0 || st.ChunksWritten != st.ChunksTotal {
		t.Fatalf("first save = %+v, %v", st, err)
	}
	wantHeader, want := committed(t, ds)

	// Train past the checkpoint, then recover from it.
	lj.steps(t, 4)
	if _, err := lj.RestoreCheckpoint(); err != nil {
		t.Fatal(err)
	}
	cold := newLive(t, cfg)
	if rs, err := cold.RestoreCheckpoint(); err != nil || rs.Bytes != 8*int64(len(want)) {
		t.Fatalf("cold restore = %+v, %v; want the whole snapshot copied", rs, err)
	}
	for name, j := range map[string]*live{"warm": lj, "cold": cold} {
		if _, err := j.SaveCheckpoint(); err != nil {
			t.Fatal(err)
		}
		gotHeader, got := committed(t, ds)
		if !bytes.Equal(gotHeader, wantHeader) {
			t.Fatalf("%s: runtime state (iteration, batch, LR, cursor) differs from the checkpoint's", name)
		}
		if !sameBits(got, want) {
			t.Fatalf("%s: restored lead arena not bit-identical to the checkpoint's state", name)
		}
	}
	// Training resumes from the restored state.
	for _, j := range []*live{lj, cold} {
		j.steps(t, 1)
		if !j.ReplicasConsistent() {
			t.Fatal("replicas diverged after delta restore")
		}
	}
}

// TestRestoreSnapshotRefusesWithoutWriting: a checkpoint whose state vector
// has the wrong length — short or long — is refused before any worker is
// written: the job's state afterwards is bit for bit the state before, on
// every worker.
func TestRestoreSnapshotRefusesWithoutWriting(t *testing.T) {
	ds := checkpoint.NewDeltaStore(checkpoint.DeltaConfig{})
	cfg := liveConfig(t, 2, 16)
	cfg.Checkpoints = ds
	lj := newLive(t, cfg)
	lj.steps(t, 3)
	if _, err := lj.SaveCheckpoint(); err != nil {
		t.Fatalf("SaveCheckpoint: %v", err)
	}
	header, snap := committed(t, ds)
	other := make([]float64, len(snap)+1) // all zero: a visible overwrite
	for name, bad := range map[string][]float64{
		"short state":   other[:3],
		"one too short": other[:len(snap)-1],
		"long state":    other,
	} {
		if _, err := ds.Save("fleet", header, bad); err != nil {
			t.Fatalf("%s: Save: %v", name, err)
		}
		if _, err := lj.RestoreCheckpoint(); err == nil {
			t.Fatalf("%s accepted", name)
		}
		if _, err := lj.SaveCheckpoint(); err != nil {
			t.Fatalf("SaveCheckpoint: %v", err)
		}
		if afterHeader, after := committed(t, ds); !sameBits(after, snap) || !bytes.Equal(afterHeader, header) {
			t.Fatalf("%s refused, but worker 0's state changed", name)
		}
		if !lj.ReplicasConsistent() {
			t.Fatalf("%s refused, but the replicas differ", name)
		}
	}
}

// TestScaleOutSpanExactVirtualTimestamps runs one scale-out on a simulated
// clock and asserts every span timestamp of its trace exactly: the recorder
// reads the same injected clock as the fleet, and nothing on the request →
// report → coordinate → install arc waits on the clock, so the trace of an
// adjustment is a deterministic fixture.
func TestScaleOutSpanExactVirtualTimestamps(t *testing.T) {
	lj, sim, rec, reg := tracedJob(t, liveConfig(t, 2, 60))
	// The adjustment fires at virtual t = epoch+5s.
	sim.Advance(5 * time.Second)
	at := epoch.Add(5 * time.Second)
	if err := lj.scaleOut(t, 1); err != nil || lj.NumWorkers() != 3 {
		t.Fatalf("scale-out: %v, workers = %d, want 3", err, lj.NumWorkers())
	}

	// The joiner's report span ends once the reply is back on its own
	// goroutine, which may be after the Step that admitted it.
	isReport := func(s telemetry.SpanRecord) bool { return s.Name == "worker.report_ready" }
	spans := rec.Snapshot()
	for deadline := time.Now().Add(5 * time.Second); !slices.ContainsFunc(spans, isReport); spans = rec.Snapshot() {
		if time.Now().After(deadline) {
			t.Fatal("no worker.report_ready span 5s after the admitting Step")
		}
		time.Sleep(time.Millisecond)
	}
	i := slices.IndexFunc(spans, func(s telemetry.SpanRecord) bool { return s.Name == "worker.request_scale_out" })
	if i < 0 {
		t.Fatalf("no worker.request_scale_out span in %d spans", len(spans))
	}
	root := spans[i]
	byName := map[string][]telemetry.SpanRecord{}
	for _, s := range spans {
		if s.Trace != root.Trace {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		if !s.Start.Equal(at) || !s.End.Equal(at) {
			t.Errorf("%s window = [%v, %v], want exactly %v", s.Name, s.Start, s.End, at)
		}
	}
	parents := map[string]uint64{"worker.report_ready": root.ID, "worker.apply_adjustment": root.ID}
	if applies := byName["worker.apply_adjustment"]; len(applies) == 1 {
		parents["worker.install_state"] = applies[0].ID
	}
	for _, name := range []string{"worker.report_ready", "worker.apply_adjustment", "worker.install_state"} {
		if got := byName[name]; len(got) != 1 || got[0].Parent != parents[name] {
			t.Fatalf("%s spans = %+v, want one, child of %d", name, got, parents[name])
		}
	}
	apply := byName["worker.apply_adjustment"][0]
	if add, _ := root.Attr("add"); add != "1" {
		t.Errorf("add attr = %q, want 1", add)
	}
	if kind, _ := apply.Attr("kind"); kind != "scale-out" {
		t.Errorf("kind attr = %q, want scale-out", kind)
	}
	if _, hasErr := apply.Attr("error"); hasErr || len(apply.Events) != 0 {
		t.Errorf("successful adjustment carries an error attribute or events %+v", apply.Events)
	}
	if got := reg.Counter("worker_adjustments_total").Value(); got != 1 {
		t.Errorf("worker_adjustments_total = %d, want 1", got)
	}
	if got := reg.Histogram("worker_step_seconds").Snapshot(); got.Count != 1 || got.Sum != 0 {
		t.Errorf("worker_step_seconds = %+v, want one zero-duration sample", got)
	}
}

// TestStepSpansOnSimClock: step spans and the allreduce spans they trigger
// share the virtual instant, and the step counters advance.
func TestStepSpansOnSimClock(t *testing.T) {
	lj, sim, rec, reg := tracedJob(t, liveConfig(t, 2, 60))
	sim.Advance(time.Second)
	lj.steps(t, 1)
	at := epoch.Add(time.Second)
	var stepID uint64
	count := map[string]int{}
	for _, s := range rec.Snapshot() {
		count[s.Name]++
		switch s.Name {
		case "worker.step":
			stepID = s.ID
			if iter, _ := s.Attr("iter"); !s.Start.Equal(at) || !s.End.Equal(at) || iter != "0" {
				t.Errorf("worker.step window = [%v, %v], iter %q, want %v and 0", s.Start, s.End, iter, at)
			}
		case "collective.allreduce":
			if link, _ := s.Attr("link"); link != "inproc" {
				t.Errorf("link attr = %q, want inproc", link)
			}
		}
	}
	// Each rank gets its own step tree; backward and allreduce join it.
	for name, want := range map[string]int{
		"worker.step":          1,
		"worker.rank_step":     2,
		"worker.forward":       2,
		"worker.optimize":      2,
		"ddp.backward":         2,
		"collective.allreduce": 2,
	} {
		if count[name] != want {
			t.Errorf("%s spans = %d, want %d", name, count[name], want)
		}
	}
	for _, s := range rec.Snapshot() {
		if s.Name == "worker.rank_step" && s.Parent != stepID {
			t.Errorf("worker.rank_step parent = %d, want worker.step %d", s.Parent, stepID)
		}
	}
	if got := reg.Counter("worker_steps_total").Value(); got != 1 {
		t.Errorf("worker_steps_total = %d, want 1", got)
	}
	if got := reg.Counter("collective_allreduce_total").Value(); got != 2 {
		t.Errorf("collective_allreduce_total = %d, want 2", got)
	}
}

// TestScaleOutRollbackEvent: an admission that fails — here, six workers on
// a four-GPU cluster — rolls the worker set back and the trace records it.
func TestScaleOutRollbackEvent(t *testing.T) {
	geom := topology.DefaultGeometry()
	geom.Nodes, geom.SocketsPerNode, geom.SwitchesPerSock, geom.GPUsPerSwitch = 2, 1, 1, 2
	cl, err := topology.NewCluster(geom)
	if err != nil {
		t.Fatalf("NewCluster: %v", err)
	}
	cfg := liveConfig(t, 2, 24)
	cfg.Cluster = cl
	lj, _, rec, reg := tracedJob(t, cfg)

	if err := lj.scaleOut(t, 4); err == nil {
		t.Fatal("scale-out beyond the cluster succeeded")
	}
	if lj.NumWorkers() != 2 || cl.NumFree() != 2 {
		t.Fatalf("workers = %d, free GPUs = %d after rollback, want 2 and 2", lj.NumWorkers(), cl.NumFree())
	}
	var apply telemetry.SpanRecord
	for _, s := range rec.Snapshot() {
		if s.Name == "worker.apply_adjustment" {
			apply = s
		}
	}
	if !slices.ContainsFunc(apply.Events, func(ev telemetry.EventRecord) bool { return ev.Name == "rollback" }) {
		t.Errorf("no rollback event on %+v", apply.Events)
	}
	if _, hasErr := apply.Attr("error"); !hasErr {
		t.Error("failed adjustment carries no error attribute")
	}
	if got := reg.Counter("worker_adjustments_total").Value(); got != 0 {
		t.Errorf("worker_adjustments_total = %d, want 0", got)
	}
	// The old group trains on.
	lj.steps(t, 2)
	if !lj.ReplicasConsistent() {
		t.Fatal("replicas diverged after rollback")
	}
}
