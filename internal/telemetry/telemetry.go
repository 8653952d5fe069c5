// Package telemetry is the observability substrate of the elastic runtime:
// nested spans (a Recorder) and typed counters/gauges/histograms (a Registry)
// that every runtime layer — transport, coord, worker, core, collective,
// sched — emits so the paper's timing claims (sub-second adjustment,
// replication cost by link level, coordination overhead) are measurable
// artifacts instead of ad-hoc prints.
//
// Two properties shape the design:
//
//   - Clock injection. A Recorder reads time exclusively from an injected
//     clock.Clock, so runs under a clock.Sim produce exact virtual
//     timestamps and traces become assertable test fixtures (the same
//     discipline the transport's timeouts and resends follow).
//   - A free disabled path. Tracing off is a nil *Recorder, whose spans
//     are nil, and unconfigured instruments are nil; every Span and
//     instrument method is safe on a nil receiver and performs no
//     allocation, so instrumented hot paths (the worker step, the bus call
//     loop) cost nothing when telemetry is off.
//
// Exporters turn the recorded data into standard formats: WriteChromeTrace
// emits Chrome trace-event JSON loadable in chrome://tracing or Perfetto,
// and Registry.WritePrometheus emits a Prometheus-style text snapshot
// (served live by DebugServer under /metrics).
package telemetry

import (
	"strconv"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// EventRecord is an instantaneous, timestamped event inside a span (e.g.
// the commit point of a scale-out, or a transport resend).
type EventRecord struct {
	Name string    `json:"name"`
	At   time.Time `json:"at"`
}

// SpanRecord is one finished span as stored by a Recorder.
type SpanRecord struct {
	// ID is unique within the recorder; Parent is 0 for root spans.
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	// Trace is the causal tree the span belongs to. A root span mints a
	// trace equal to its own ID; children and remote children inherit it,
	// so one cross-process operation shares one trace.
	Trace uint64 `json:"trace,omitempty"`
	// Proc is the logical process ("fleet-am", "agent-2", ...) the span ran
	// in. Empty means the main process.
	Proc string `json:"proc,omitempty"`
	// Remote marks a span whose parent lives in another process: the
	// parent ID arrived in a TraceContext rather than from a local *Span.
	Remote bool          `json:"remote,omitempty"`
	Name   string        `json:"name"`
	Start  time.Time     `json:"start"`
	End    time.Time     `json:"end"`
	Attrs  []Attr        `json:"attrs,omitempty"`
	Events []EventRecord `json:"events,omitempty"`
}

// Duration returns the span's recorded duration.
func (r SpanRecord) Duration() time.Duration { return r.End.Sub(r.Start) }

// Attr returns the value of the named attribute and whether it was set.
func (r SpanRecord) Attr(key string) (string, bool) {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value, true
		}
	}
	return "", false
}

// TraceContext is the wire form of causality: just enough of a span's
// identity (trace ID + span ID + logical process) to let the receiving side
// open a remote child. It travels inside transport.Message, so one scale
// adjustment that flows sched → AM → workers renders as a single tree. The
// zero value is "no trace" and propagating it costs nothing.
type TraceContext struct {
	Trace uint64 `json:"trace,omitempty"`
	Span  uint64 `json:"span,omitempty"`
	Proc  string `json:"proc,omitempty"`
}

// Valid reports whether the context names a real span.
func (tc TraceContext) Valid() bool { return tc.Trace != 0 && tc.Span != 0 }

// Span is an in-progress operation. Spans are created by a Recorder (or as
// children of other spans), annotated, and closed with End, at which point
// the owning Recorder stores a SpanRecord. A Span must not be used from
// multiple goroutines concurrently, matching how the runtime scopes them
// (one span per call / step / adjustment). The nil Span is valid and all
// its methods are allocation-free no-ops.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	trace  uint64
	proc   string
	remote bool
	name   string
	start  time.Time
	attrs  []Attr
	events []EventRecord
	ended  bool
}

// Child opens a nested span under s, inheriting its trace and process
// label. On a nil span it returns nil, keeping the whole tree free when
// tracing is off.
//
//elan:hotpath
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	return s.rec.child(name, s)
}

// Context returns the span's wire identity for propagation in messages.
// The nil span returns the zero TraceContext, so untraced paths propagate
// "no trace" for free.
//
//elan:hotpath
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return TraceContext{Trace: s.trace, Span: s.id, Proc: s.proc}
}

// SetProc overrides the span's logical process label. A no-op on nil or
// ended spans.
//
//elan:hotpath
func (s *Span) SetProc(proc string) {
	if s == nil || s.ended {
		return
	}
	s.proc = proc
}

// Annotate attaches a key/value attribute. After End the span record is
// owned by the recorder, so late annotations are documented no-ops rather
// than silent mutations of the finished record.
//
//elan:hotpath
func (s *Span) Annotate(key, value string) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// AnnotateInt attaches an integer attribute. The formatting cost is only
// paid when the span is live. A no-op after End.
//
//elan:hotpath
func (s *Span) AnnotateInt(key string, v int) {
	if s == nil || s.ended {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.Itoa(v)})
}

// Event records an instantaneous named event at the current (injected)
// clock reading — resends, commit points, rollbacks. A no-op after End.
//
//elan:hotpath
func (s *Span) Event(name string) {
	if s == nil || s.ended {
		return
	}
	s.events = append(s.events, EventRecord{Name: name, At: s.rec.now()})
}

// End closes the span and hands it to the recorder. Ending twice records
// once.
//
//elan:hotpath
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	s.rec.finish(s)
}
