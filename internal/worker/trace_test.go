package worker

import (
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/telemetry"
)

// waitSpans waits until rec holds at least n ended spans named name and
// returns the snapshot that does. A joiner's worker.report_ready span ends
// only once its report's reply is back on the joiner's goroutine, which can
// be after the AM turned Ready and after the Step that admitted the joiner:
// fleet state alone does not say the span is in the recorder.
func waitSpans(t *testing.T, rec *telemetry.Recorder, name string, n int) []telemetry.SpanRecord {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		spans, got := rec.Snapshot(), 0
		for _, s := range spans {
			if s.Name == name {
				got++
			}
		}
		if got >= n {
			return spans
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s spans = %d after 5s, want %d", name, got, n)
		}
	}
}

// TestScaleOutCrossProcessTrace is the acceptance test for causal trace
// propagation: one RequestScaleOut renders as a single causally-linked span
// tree spanning the scheduler, the transport layer, the AM service, the two
// new agents' reports, the lead's apply, and the two state installs — and
// on a frozen sim clock every span of the tree carries the exact virtual
// timestamp (the epoch; the default bus is lossless with zero latency, so
// nothing ever sleeps).
func TestScaleOutCrossProcessTrace(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sim := clock.NewSim(epoch)
	rec := telemetry.NewRecorder(sim, 0)
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    2,
		TotalBatch: 24,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       21,
		Clock:      sim,
		Tracer:     rec,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)

	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for f.NumWorkers() != 4 {
		if time.Now().After(deadline) {
			t.Fatalf("adjustment never applied; workers = %d", f.NumWorkers())
		}
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step: %v", err)
		}
	}

	spans := waitSpans(t, rec, "worker.report_ready", 2)
	var root telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == "worker.request_scale_out" {
			root = s
		}
	}
	if root.ID == 0 {
		t.Fatal("no worker.request_scale_out span recorded")
	}
	if root.Trace != root.ID || root.Parent != 0 || root.Proc != "fleet-sched" {
		t.Fatalf("request root = trace %d parent %d proc %q, want self-rooted on fleet-sched",
			root.Trace, root.Parent, root.Proc)
	}
	if v, _ := root.Attr("add"); v != "2" {
		t.Errorf("request add attr = %q, want 2", v)
	}

	// Collect the request's trace: the one tree the whole adjustment shares.
	tree := map[uint64]telemetry.SpanRecord{}
	byName := map[string][]telemetry.SpanRecord{}
	for _, s := range spans {
		if s.Trace == root.Trace {
			tree[s.ID] = s
			byName[s.Name] = append(byName[s.Name], s)
		}
	}

	// Every span of the tree happened at the frozen virtual instant.
	for _, s := range tree {
		if !s.Start.Equal(epoch) || !s.End.Equal(epoch) {
			t.Errorf("%s on %s at [%v, %v], want exactly the epoch", s.Name, s.Proc, s.Start, s.End)
		}
	}

	// The scheduler's adjust request crossed the bus: its transport.call is
	// a local child, the handler span is a remote child on the AM process,
	// and the AM's service span chains below that.
	var adjCall telemetry.SpanRecord
	for _, c := range byName["transport.call"] {
		if v, _ := c.Attr("kind"); v == "adjust.request" {
			adjCall = c
		}
	}
	if adjCall.ID == 0 || adjCall.Parent != root.ID || adjCall.Proc != "fleet-sched" {
		t.Fatalf("adjust transport.call = %+v, want child of request on fleet-sched", adjCall)
	}
	var adjHandle telemetry.SpanRecord
	for _, h := range byName["transport.handle"] {
		if h.Parent == adjCall.ID {
			adjHandle = h
		}
	}
	if adjHandle.ID == 0 || !adjHandle.Remote || adjHandle.Proc != "fleet-am" {
		t.Fatalf("adjust transport.handle = %+v, want remote child on fleet-am", adjHandle)
	}
	if len(byName["coord.adjust_request"]) != 1 {
		t.Fatalf("coord.adjust_request spans = %d, want 1", len(byName["coord.adjust_request"]))
	}
	if svc := byName["coord.adjust_request"][0]; svc.Parent != adjHandle.ID || svc.Proc != "fleet-am" {
		t.Fatalf("coord.adjust_request = %+v, want chained under the handler on fleet-am", svc)
	}

	// Both new agents' readiness reports are remote children of the request,
	// each on its own process track.
	reports := byName["worker.report_ready"]
	if len(reports) != 2 {
		t.Fatalf("worker.report_ready spans = %d, want 2", len(reports))
	}
	procs := map[string]bool{}
	for _, r := range reports {
		if r.Parent != root.ID || !r.Remote {
			t.Errorf("report %+v, want remote child of the request", r)
		}
		procs[r.Proc] = true
	}
	if !procs["agent-2"] || !procs["agent-3"] {
		t.Fatalf("report procs = %v, want agent-2 and agent-3", procs)
	}

	// The lead applied the adjustment as a remote child of the request (not
	// of its own step span), and each install ran on the joining agent.
	applies := byName["worker.apply_adjustment"]
	if len(applies) != 1 {
		t.Fatalf("worker.apply_adjustment spans = %d, want 1", len(applies))
	}
	apply := applies[0]
	if apply.Parent != root.ID || !apply.Remote || apply.Proc != "fleet-lead" {
		t.Fatalf("apply = %+v, want remote child of the request on fleet-lead", apply)
	}
	if v, _ := apply.Attr("kind"); v != "scale-out" {
		t.Errorf("apply kind attr = %q, want scale-out", v)
	}
	installs := byName["worker.install_state"]
	if len(installs) != 2 {
		t.Fatalf("worker.install_state spans = %d, want 2", len(installs))
	}
	iprocs := map[string]bool{}
	for _, in := range installs {
		if in.Parent != apply.ID || !in.Remote {
			t.Errorf("install %+v, want remote child of the apply", in)
		}
		iprocs[in.Proc] = true
	}
	if !iprocs["agent-2"] || !iprocs["agent-3"] {
		t.Fatalf("install procs = %v, want agent-2 and agent-3", iprocs)
	}

	// The tree really is cross-process: scheduler, AM, lead, and both new
	// workers all contributed spans to the one trace.
	allProcs := map[string]bool{}
	for _, s := range tree {
		allProcs[s.Proc] = true
	}
	for _, want := range []string{"fleet-sched", "fleet-am", "fleet-lead", "agent-2", "agent-3"} {
		if !allProcs[want] {
			t.Errorf("trace missing process %s (got %v)", want, allProcs)
		}
	}
}

// TestStartInitDelaysReports pins FleetConfig.StartInit on a frozen sim
// clock: joiners report only once virtual time reaches request + start/init,
// so no Step admits them before; each report span ends exactly at that
// instant; and the first Step after the AM reads Ready admits.
func TestStartInitDelaysReports(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sim := clock.NewSim(epoch)
	rec := telemetry.NewRecorder(sim, 0)
	guardGoroutines(t)
	const startInit = 30 * time.Second
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    2,
		TotalBatch: 24,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       21,
		Clock:      sim,
		Tracer:     rec,
		StartInit:  func() time.Duration { return startInit },
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)

	sim.Advance(5 * time.Second)
	request := sim.Now()
	if err := f.RequestScaleOut(2); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	// Step through the start/init window, one virtual second a Step: none
	// may admit, however long the joiners' goroutines have had.
	for sim.Now().Before(request.Add(startInit)) {
		steps(t, f, 1)
		if n := f.NumWorkers(); n != 2 {
			t.Fatalf("%d workers at %v, before request + %v", n, sim.Now().Sub(request), startInit)
		}
		sim.Advance(time.Second)
	}
	if !sim.Now().Equal(request.Add(startInit)) {
		t.Fatalf("clock at %v, want request + %v", sim.Now().Sub(request), startInit)
	}
	waitReady(t, f)
	// The clock stays frozen until both report spans have ended.
	for _, s := range waitSpans(t, rec, "worker.report_ready", 2) {
		if s.Name != "worker.report_ready" {
			continue
		}
		if !s.End.Equal(request.Add(startInit)) {
			t.Errorf("%s report ends at request + %v, want + %v", s.Proc, s.End.Sub(request), startInit)
		}
	}
	steps(t, f, 1)
	if n := f.NumWorkers(); n != 4 {
		t.Fatalf("%d workers after the first Step once Ready, want 4", n)
	}
}

// TestStepTraceFansOutToRanks: a traced Step produces per-rank remote
// children on each agent's process track, with the reducer's backward and
// allreduce spans joined to the same trace — the raw material of the
// per-step time attribution.
func TestStepTraceFansOutToRanks(t *testing.T) {
	epoch := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	sim := clock.NewSim(epoch)
	rec := telemetry.NewRecorder(sim, 0)
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    2,
		TotalBatch: 24,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       21,
		Clock:      sim,
		Tracer:     rec,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	t.Cleanup(f.Close)
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}

	spans := rec.Snapshot()
	var step telemetry.SpanRecord
	for _, s := range spans {
		if s.Name == "worker.step" {
			step = s
		}
	}
	if step.ID == 0 || step.Proc != "fleet-lead" {
		t.Fatalf("worker.step span = %+v", step)
	}
	count := map[string]int{}
	rankProcs := map[string]bool{}
	for _, s := range spans {
		if s.Trace != step.Trace {
			continue
		}
		count[s.Name]++
		if s.Name == "worker.rank_step" {
			rankProcs[s.Proc] = true
			if s.Parent != step.ID || !s.Remote {
				t.Errorf("rank step %+v, want remote child of the step", s)
			}
			if !s.Start.Equal(epoch) || !s.End.Equal(epoch) {
				t.Errorf("rank step at [%v, %v], want the epoch", s.Start, s.End)
			}
		}
	}
	for name, want := range map[string]int{
		"worker.rank_step":     2,
		"worker.forward":       2,
		"worker.optimize":      2,
		"ddp.backward":         2,
		"collective.allreduce": 2,
	} {
		if count[name] != want {
			t.Errorf("%s spans in step trace = %d, want %d", name, count[name], want)
		}
	}
	if !rankProcs["agent-0"] || !rankProcs["agent-1"] {
		t.Errorf("rank step procs = %v, want agent-0 and agent-1", rankProcs)
	}

	// The step trace feeds attribution directly.
	a := telemetry.Attribute(spans)
	if len(a.RankSteps) != 2 {
		t.Fatalf("attribution rank steps = %d, want 2", len(a.RankSteps))
	}
}

// TestFleetTypedNilTracer: a nil *telemetry.Recorder in the Tracer field is
// tracing off — no panic in NewFleet's flight-recorder and dropped-span
// counter hookup or in a Step's spans.
func TestFleetTypedNilTracer(t *testing.T) {
	guardGoroutines(t)
	f, err := NewFleet(FleetConfig{
		Dataset:    dataset(t, 1024),
		LayerSizes: []int{4, 16, 3},
		Workers:    2,
		TotalBatch: 32,
		LR:         0.05,
		Momentum:   0.9,
		Seed:       21,
		Tracer:     (*telemetry.Recorder)(nil),
		Metrics:    telemetry.NewRegistry(),
		Flight:     telemetry.NewFlightRecorder(16),
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()
	if _, err := f.Step(); err != nil {
		t.Fatalf("Step: %v", err)
	}
}

// TestFleetSpansDroppedCounter: a fleet with both a recorder and a metrics
// registry publishes the recorder's drop count as telemetry_spans_dropped,
// so a trace capped mid-run shows on the /metrics page.
func TestFleetSpansDroppedCounter(t *testing.T) {
	guardGoroutines(t)
	rec := telemetry.NewRecorder(clock.Wall{}, 1)
	reg := telemetry.NewRegistry()
	f, err := NewFleet(FleetConfig{
		Dataset: dataset(t, 1024), LayerSizes: []int{4, 16, 3}, Workers: 2, TotalBatch: 32,
		LR: 0.05, Momentum: 0.9, Seed: 21, Tracer: rec, Metrics: reg,
	})
	if err != nil {
		t.Fatalf("NewFleet: %v", err)
	}
	defer f.Close()
	for i := 0; i < 2; i++ {
		if _, err := f.Step(); err != nil {
			t.Fatalf("Step %d: %v", i, err)
		}
	}
	if got := reg.Counter("telemetry_spans_dropped").Value(); got <= 0 {
		t.Fatalf("telemetry_spans_dropped = %d after %d dropped spans, want > 0", got, rec.Dropped())
	}
}
