package telemetry

import (
	"sort"
	"sync"
	"time"

	"github.com/elan-sys/elan/internal/clock"
)

// DefaultMaxSpans bounds a Recorder's memory: once this many spans are
// stored, further End calls are counted as dropped instead of recorded.
const DefaultMaxSpans = 1 << 16

// Recorder is the tracer: it timestamps spans on an injected clock.Clock
// and stores finished spans for export. A nil *Recorder is tracing off:
// its spans are nil and cost nothing. It is safe for concurrent use by any
// number of goroutines (each span itself stays on one goroutine).
type Recorder struct {
	clk clock.Clock
	max int

	mu       sync.Mutex
	nextID   uint64
	spans    []SpanRecord
	dropped  int
	flight   *FlightRecorder
	mDropped *Counter
}

// NewRecorder builds a Recorder on the given clock. A nil clock selects the
// wall clock; simulated runs inject a *clock.Sim so every timestamp is
// exact virtual time. maxSpans <= 0 selects DefaultMaxSpans.
func NewRecorder(clk clock.Clock, maxSpans int) *Recorder {
	if clk == nil {
		clk = clock.Wall{}
	}
	if maxSpans <= 0 {
		maxSpans = DefaultMaxSpans
	}
	return &Recorder{clk: clk, max: maxSpans}
}

func (r *Recorder) now() time.Time { return r.clk.Now() }

// SetFlightRecorder attaches an always-on flight recorder: every finished
// span (and its events) is copied into the ring even when the span cap has
// been hit, so the black box keeps rolling after the exportable trace is
// full. Pass nil to detach.
func (r *Recorder) SetFlightRecorder(f *FlightRecorder) {
	r.mu.Lock()
	r.flight = f
	r.mu.Unlock()
}

// Instrument publishes the recorder's drop count as the
// telemetry_spans_dropped counter on reg, so a silently-capped trace is
// visible on the /metrics debug page. A no-op on a nil recorder or nil
// registry.
func (r *Recorder) Instrument(reg *Registry) {
	if r == nil || reg == nil {
		return
	}
	c := reg.Counter("telemetry_spans_dropped")
	r.mu.Lock()
	r.mDropped = c
	c.Add(int64(r.dropped))
	r.mu.Unlock()
}

// StartSpan opens a root span, minting a fresh trace (trace ID = span
// ID). A nil recorder returns a nil span, whose methods all no-op without
// allocating, so call sites never check.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	return r.start(name, TraceContext{})
}

// StartRemoteSpan opens a span whose parent lives in another process,
// identified by a TraceContext extracted from a message: the new span
// joins the parent's trace as a remote child, inheriting the parent's
// process label until SetProc overrides it. An invalid parent degrades to
// a fresh root. A nil recorder returns nil, as StartSpan does.
func (r *Recorder) StartRemoteSpan(name string, parent TraceContext) *Span {
	if r == nil {
		return nil
	}
	return r.start(name, parent)
}

// start mints the span for StartSpan and StartRemoteSpan. Keeping it out
// of them keeps both small enough to inline, so a nil recorder costs its
// callers a nil check and no call.
func (r *Recorder) start(name string, parent TraceContext) *Span {
	id := r.allocID()
	if !parent.Valid() {
		return &Span{rec: r, id: id, trace: id, name: name, start: r.clk.Now()}
	}
	return &Span{
		rec: r, id: id, parent: parent.Span, trace: parent.Trace,
		proc: parent.Proc, remote: true, name: name, start: r.clk.Now(),
	}
}

func (r *Recorder) child(name string, parent *Span) *Span {
	id := r.allocID()
	return &Span{
		rec: r, id: id, parent: parent.id, trace: parent.trace,
		proc: parent.proc, name: name, start: r.clk.Now(),
	}
}

func (r *Recorder) allocID() uint64 {
	r.mu.Lock()
	r.nextID++
	id := r.nextID
	r.mu.Unlock()
	return id
}

// finish stores the span's record, honoring the span cap. The attr and
// event slices are copied: the finished SpanRecord must not alias the
// span's internal buffers (End makes later mutation a no-op, and the copy
// guarantees the stored record is immutable regardless). The flight
// recorder is fed before the cap check so the black box stays current even
// when the exportable trace is full.
func (r *Recorder) finish(s *Span) {
	end := r.clk.Now()
	rec := SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Trace:  s.trace,
		Proc:   s.proc,
		Remote: s.remote,
		Name:   s.name,
		Start:  s.start,
		End:    end,
	}
	if len(s.attrs) > 0 {
		rec.Attrs = make([]Attr, len(s.attrs))
		copy(rec.Attrs, s.attrs)
	}
	if len(s.events) > 0 {
		rec.Events = make([]EventRecord, len(s.events))
		copy(rec.Events, s.events)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.flight != nil {
		r.flight.Record(rec)
	}
	if len(r.spans) >= r.max {
		r.dropped++
		r.mDropped.Inc()
		return
	}
	r.spans = append(r.spans, rec)
}

// Snapshot returns a deep copy of the finished spans ordered by start time
// (ties broken by ID, i.e. creation order — deterministic under a sim
// clock). Attr and event slices are copied too, so mutating a snapshot
// never reaches the stored records or other snapshots.
func (r *Recorder) Snapshot() []SpanRecord {
	r.mu.Lock()
	out := make([]SpanRecord, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		if len(out[i].Attrs) > 0 {
			out[i].Attrs = append([]Attr(nil), out[i].Attrs...)
		}
		if len(out[i].Events) > 0 {
			out[i].Events = append([]EventRecord(nil), out[i].Events...)
		}
	}
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// Len reports the number of stored spans.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// Dropped reports how many finished spans were discarded by the cap.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Reset discards all stored spans (the drop counter too), e.g. between
// benchmark phases.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = nil
	r.dropped = 0
}
