package telemetry

import (
	"bytes"
	"context"
	"testing"

	"github.com/elan-sys/elan/internal/clock"
)

// TestTracePropagation: roots mint a trace equal to their ID, children and
// remote children inherit it, and remote children carry the Remote mark and
// the parent's process label until overridden.
func TestTracePropagation(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 0)

	root := rec.StartSpan("sched.request")
	root.SetProc("fleet-sched")
	child := root.Child("transport.call")
	remote := rec.StartRemoteSpan("transport.handle", child.Context())
	remote.SetProc("fleet-am")
	grand := remote.Child("coord.adjust_request")
	grand.End()
	remote.End()
	child.End()
	root.End()

	spans := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("spans = %d, want 4", len(spans))
	}
	r := spans[0]
	if r.Trace != r.ID {
		t.Fatalf("root trace = %d, want its own ID %d", r.Trace, r.ID)
	}
	byName := map[string]SpanRecord{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	c, rm, g := byName["transport.call"], byName["transport.handle"], byName["coord.adjust_request"]
	if c.Trace != r.Trace || rm.Trace != r.Trace || g.Trace != r.Trace {
		t.Fatal("trace ID not inherited across child/remote/grandchild")
	}
	if c.Proc != "fleet-sched" {
		t.Errorf("child proc = %q, want inherited fleet-sched", c.Proc)
	}
	if !rm.Remote || rm.Parent != c.ID {
		t.Errorf("remote span: Remote=%v Parent=%d, want true and %d", rm.Remote, rm.Parent, c.ID)
	}
	if rm.Proc != "fleet-am" || g.Proc != "fleet-am" {
		t.Errorf("remote proc = %q, grandchild proc = %q, want fleet-am", rm.Proc, g.Proc)
	}
	if g.Remote {
		t.Error("local grandchild marked remote")
	}
}

func TestTraceContextValid(t *testing.T) {
	if (TraceContext{}).Valid() {
		t.Error("zero context is valid")
	}
	if !(TraceContext{Trace: 1, Span: 2}).Valid() {
		t.Error("real context is invalid")
	}
	var s *Span
	if s.Context() != (TraceContext{}) {
		t.Error("nil span context is not zero")
	}
}

// TestStartRemoteFallbacks: StartRemoteSpan is safe on a nil recorder,
// and degrades to a root span on an invalid parent.
func TestStartRemoteFallbacks(t *testing.T) {
	var off *Recorder
	if off.StartRemoteSpan("x", TraceContext{Trace: 9, Span: 9}) != nil {
		t.Error("nil recorder StartRemoteSpan returned a span")
	}
	rec := NewRecorder(clock.NewSim(epoch), 0)
	if s := rec.StartRemoteSpan("x", TraceContext{}); s == nil {
		t.Error("invalid parent should degrade to a root span")
	} else if s.remote {
		t.Error("degraded root span marked remote")
	}
}

// TestFinishedRecordImmutable is the regression test for the finish-path
// aliasing bug: the stored SpanRecord must not share backing arrays with
// the span, and mutation after End is a documented no-op.
func TestFinishedRecordImmutable(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 0)
	s := rec.StartSpan("op")
	s.Annotate("k", "v")
	s.Event("e")
	s.End()

	// Post-End mutations: all documented no-ops.
	s.Annotate("late", "x")
	s.AnnotateInt("late2", 1)
	s.Event("late-event")
	s.SetProc("late-proc")

	got := rec.Snapshot()[0]
	if len(got.Attrs) != 1 || got.Attrs[0] != (Attr{Key: "k", Value: "v"}) {
		t.Fatalf("stored attrs mutated after End: %+v", got.Attrs)
	}
	if len(got.Events) != 1 || got.Events[0].Name != "e" {
		t.Fatalf("stored events mutated after End: %+v", got.Events)
	}
	if got.Proc != "" {
		t.Fatalf("stored proc mutated after End: %q", got.Proc)
	}
	// Direct aliasing probe: growing into the span's old capacity must not
	// show through the snapshot copy.
	s2 := rec.StartSpan("op2")
	s2.Annotate("a", "1")
	s2.Annotate("b", "2")
	s2.End()
	snap := rec.Snapshot()
	snap[1].Attrs[0].Value = "clobbered"
	if v, _ := rec.Snapshot()[1].Attr("a"); v != "1" {
		t.Fatalf("snapshot aliases stored record: a=%q", v)
	}
}

// TestSpansDroppedMetric: the recorder's drop count is published as the
// telemetry_spans_dropped counter, including drops from before Instrument.
func TestSpansDroppedMetric(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 1)
	rec.StartSpan("kept").End()
	rec.StartSpan("early-drop").End()
	reg := NewRegistry()
	rec.Instrument(reg)
	rec.StartSpan("late-drop").End()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("telemetry_spans_dropped 2")) {
		t.Fatalf("metrics missing telemetry_spans_dropped 2:\n%s", buf.String())
	}
}

func TestContextCarriesSpan(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 0)
	s := rec.StartSpan("op")
	ctx := ContextWithSpan(context.Background(), s)
	if SpanFromContext(ctx) != s {
		t.Fatal("span not recovered from context")
	}
	// Nil span attaches nothing; background yields nil.
	if ContextWithSpan(context.Background(), nil) != context.Background() {
		t.Error("nil span changed the context")
	}
	if SpanFromContext(context.Background()) != nil {
		t.Error("background context yielded a span")
	}
}
