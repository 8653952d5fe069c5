package telemetry

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
)

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// TestSimClockSpanTimestamps drives a recorder on a sim clock and asserts
// every timestamp exactly: with injected time, traces are fixtures, not
// approximations.
func TestSimClockSpanTimestamps(t *testing.T) {
	sim := clock.NewSim(epoch)
	rec := NewRecorder(sim, 0)

	root := rec.StartSpan("adjust")
	root.AnnotateInt("workers", 4)
	sim.Advance(250 * time.Millisecond)
	child := root.Child("replicate")
	sim.Advance(100 * time.Millisecond)
	root.Event("commit-point")
	child.End()
	sim.Advance(50 * time.Millisecond)
	root.End()

	spans := rec.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	// Snapshot orders by start time: root first.
	r, c := spans[0], spans[1]
	if r.Name != "adjust" || c.Name != "replicate" {
		t.Fatalf("order = %q, %q", r.Name, c.Name)
	}
	if c.Parent != r.ID {
		t.Fatalf("child parent = %d, want %d", c.Parent, r.ID)
	}
	if !r.Start.Equal(epoch) {
		t.Errorf("root start = %v, want %v", r.Start, epoch)
	}
	if !r.End.Equal(epoch.Add(400 * time.Millisecond)) {
		t.Errorf("root end = %v, want epoch+400ms", r.End)
	}
	if !c.Start.Equal(epoch.Add(250*time.Millisecond)) || !c.End.Equal(epoch.Add(350*time.Millisecond)) {
		t.Errorf("child window = [%v, %v], want epoch+[250ms, 350ms]", c.Start, c.End)
	}
	if c.Duration() != 100*time.Millisecond {
		t.Errorf("child duration = %v, want 100ms", c.Duration())
	}
	if len(r.Events) != 1 || r.Events[0].Name != "commit-point" ||
		!r.Events[0].At.Equal(epoch.Add(350*time.Millisecond)) {
		t.Errorf("root events = %+v, want commit-point at epoch+350ms", r.Events)
	}
	if v, ok := r.Attr("workers"); !ok || v != "4" {
		t.Errorf("workers attr = %q, %v", v, ok)
	}
	if _, ok := r.Attr("missing"); ok {
		t.Error("missing attr reported present")
	}
}

// TestSnapshotOrderingDeterministic: spans starting at the same virtual
// instant are ordered by creation.
func TestSnapshotOrderingDeterministic(t *testing.T) {
	sim := clock.NewSim(epoch)
	rec := NewRecorder(sim, 0)
	a := rec.StartSpan("a")
	b := rec.StartSpan("b")
	b.End()
	a.End()
	spans := rec.Snapshot()
	if len(spans) != 2 || spans[0].Name != "a" || spans[1].Name != "b" {
		t.Fatalf("order = %+v, want a then b", spans)
	}
}

func TestDoubleEndRecordsOnce(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 0)
	s := rec.StartSpan("once")
	s.End()
	s.End()
	if rec.Len() != 1 {
		t.Fatalf("Len = %d after double End, want 1", rec.Len())
	}
}

func TestRecorderCapDrops(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 2)
	for i := 0; i < 5; i++ {
		rec.StartSpan("s").End()
	}
	if rec.Len() != 2 || rec.Dropped() != 3 {
		t.Fatalf("Len=%d Dropped=%d, want 2 and 3", rec.Len(), rec.Dropped())
	}
	rec.Reset()
	if rec.Len() != 0 || rec.Dropped() != 0 {
		t.Fatalf("after Reset: Len=%d Dropped=%d", rec.Len(), rec.Dropped())
	}
}

// TestNilSpanSafe: the entire span API on nil receivers, as a nil
// recorder (tracing off) hands out.
func TestNilSpanSafe(t *testing.T) {
	var rec *Recorder
	rec.Instrument(NewRegistry())
	s := rec.StartSpan("anything")
	if s != nil {
		t.Fatal("nil recorder StartSpan returned non-nil")
	}
	s.Annotate("k", "v")
	s.AnnotateInt("n", 1)
	s.Event("e")
	if c := s.Child("child"); c != nil {
		t.Fatal("nil span returned non-nil child")
	}
	s.End()
}

// TestNilInstrumentsSafe: a nil registry hands out nil instruments whose
// whole API no-ops.
func TestNilInstrumentsSafe(t *testing.T) {
	var reg *Registry
	c := reg.Counter("c")
	g := reg.Gauge("g")
	h := reg.Histogram("h")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry returned live instruments")
	}
	c.Inc()
	c.Add(5)
	g.Set(3.5)
	h.Observe(1)
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil instruments accumulated values")
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil || sb.Len() != 0 {
		t.Fatalf("nil registry WritePrometheus = %q, %v", sb.String(), err)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := NewRegistry()
	if reg.Counter("x") != reg.Counter("x") {
		t.Error("same counter name resolved to different instruments")
	}
	if reg.Gauge("x") != reg.Gauge("x") {
		t.Error("same gauge name resolved to different instruments")
	}
	if reg.Histogram("x") != reg.Histogram("x") {
		t.Error("same histogram name resolved to different instruments")
	}
}

func TestCounterIgnoresNegative(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("c")
	c.Add(3)
	c.Add(-10)
	c.Add(0)
	if c.Value() != 3 {
		t.Fatalf("counter = %d, want 3", c.Value())
	}
}

func TestHistogramSnapshot(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("h")
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i))
	}
	snap := h.Snapshot()
	if snap.Count != 100 || snap.Sum != 5050 {
		t.Fatalf("count=%d sum=%g, want 100 and 5050", snap.Count, snap.Sum)
	}
	if snap.Quantiles.P50 < 49 || snap.Quantiles.P50 > 52 {
		t.Errorf("P50 = %g, want ~50.5", snap.Quantiles.P50)
	}
	if snap.Quantiles.P99 < snap.Quantiles.P95 || snap.Quantiles.P95 < snap.Quantiles.P50 {
		t.Errorf("quantiles not ordered: %+v", snap.Quantiles)
	}
	if snap.Summary.Max != 100 || snap.Summary.Min != 1 {
		t.Errorf("summary = %+v", snap.Summary)
	}
}

// TestHistogramWindowRolls: count and sum stay exact after the quantile
// window wraps.
func TestHistogramWindowRolls(t *testing.T) {
	h := NewRegistry().Histogram("h")
	n := histWindow + 100
	for i := 0; i < n; i++ {
		h.Observe(1)
	}
	snap := h.Snapshot()
	if snap.Count != int64(n) || snap.Sum != float64(n) {
		t.Fatalf("count=%d sum=%g, want %d", snap.Count, snap.Sum, n)
	}
}

func TestWritePrometheus(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("b_total").Add(7)
	reg.Counter("a_total").Add(3)
	reg.Gauge("g_workers").Set(4)
	h := reg.Histogram("h_seconds")
	h.Observe(0.5)
	h.Observe(1.5)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE a_total counter\na_total 3\n",
		"# TYPE b_total counter\nb_total 7\n",
		"# TYPE g_workers gauge\ng_workers 4\n",
		"# TYPE h_seconds summary\n",
		`h_seconds{quantile="0.5"}`,
		"h_seconds_sum 2\n",
		"h_seconds_count 2\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
	// Counters sorted by name.
	if strings.Index(out, "a_total") > strings.Index(out, "b_total") {
		t.Error("counters not sorted by name")
	}
}

// waitNumGoroutine retries until the goroutine count drops back to at most
// want (the idiom used by the transport and worker leak guards).
func waitNumGoroutine(t *testing.T, want int) {
	t.Helper()
	for i := 0; i < 100; i++ {
		if runtime.NumGoroutine() <= want {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("goroutines = %d, want <= %d", runtime.NumGoroutine(), want)
}

// TestNoGoroutineLeak: a recorder and registry session, including spans left
// unended, holds no goroutines at all.
func TestNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	rec := NewRecorder(clock.NewSim(epoch), 0)
	reg := NewRegistry()
	s := rec.StartSpan("leaky")
	s.Child("abandoned") // never ended
	s.End()
	reg.Counter("c").Inc()
	reg.Histogram("h").Observe(1)
	_ = rec.Snapshot()
	waitNumGoroutine(t, before)
}
