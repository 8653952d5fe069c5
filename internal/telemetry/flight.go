package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// DefaultFlightCapacity is the ring size a zero capacity selects: enough to
// hold the last few hundred steps of a small fleet. A FlightRecord is 248
// bytes, so the ring takes about 1 MB, and with its dump image about 2 MB.
const DefaultFlightCapacity = 4096

// flightAttrCap bounds how many attributes one flight record keeps. The
// ring stores fixed-layout records so the steady-state path never
// allocates; spans with more attributes are truncated, not dropped.
const flightAttrCap = 4

// FlightRecord is one fixed-layout slot of the flight ring: a finished span
// (Kind 'S') or an instantaneous event (Kind 'E', Parent = owning span).
// The layout is flat — no slices, no maps — so overwriting a slot reuses
// its memory and the record path stays allocation-free.
type FlightRecord struct {
	Kind   byte // 'S' span, 'E' event
	Name   string
	Proc   string
	Trace  uint64
	ID     uint64
	Parent uint64
	Start  time.Time
	End    time.Time
	NAttrs int
	Attrs  [flightAttrCap]Attr
}

// FlightRecorder is the always-on black box: a fixed-capacity,
// pre-allocated ring of recent span and event records that overwrites the
// oldest entry. Unlike the Recorder's exportable trace it never fills up
// and never allocates in steady state (guarded by an AllocsPerRun test), so
// it can run in production and be dumped on fault — by the chaos harness,
// by worker/AM crash paths, or on demand. All methods are safe on a nil
// receiver and for concurrent use.
type FlightRecorder struct {
	mu    sync.Mutex
	buf   []FlightRecord
	next  int    // index of the slot the next record overwrites
	total uint64 // records ever written (wrapped records included)

	// dump is the ring as it stood at the last DumpNow, slot for slot in
	// ring order: dumpNext and dumpTotal are next and total at that moment.
	// A slot not written since then still equals its image, so a dump
	// copies only the slots written since the previous one.
	dump       []FlightRecord
	dumpNext   int
	dumpTotal  uint64
	dumpReason string
}

// NewFlightRecorder pre-allocates a ring of the given capacity (<= 0
// selects DefaultFlightCapacity) and its dump image. All memory is
// allocated here; recording and dumping never allocate again.
func NewFlightRecorder(capacity int) *FlightRecorder {
	if capacity <= 0 {
		capacity = DefaultFlightCapacity
	}
	return &FlightRecorder{
		buf:  make([]FlightRecord, capacity),
		dump: make([]FlightRecord, capacity),
	}
}

// Capacity returns the ring size.
func (f *FlightRecorder) Capacity() int {
	if f == nil {
		return 0
	}
	return len(f.buf)
}

// Total returns how many records have ever been written (including ones
// already overwritten).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.total
}

// slot claims the next ring slot. Caller holds f.mu.
//
//elan:hotpath
func (f *FlightRecorder) slot() *FlightRecord {
	s := &f.buf[f.next]
	f.next++
	if f.next == len(f.buf) {
		f.next = 0
	}
	f.total++
	return s
}

// Record copies a finished span into the ring: scalar fields, the first
// flightAttrCap attributes, and each span event as its own 'E' slot (with
// Parent = the span's ID, so dumps re-associate them). The SpanRecord is
// taken by value and only its backing arrays are read, never retained —
// the whole path is allocation-free.
//
//elan:hotpath
func (f *FlightRecorder) Record(rec SpanRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	s := f.slot()
	s.Kind = 'S'
	s.Name = rec.Name
	s.Proc = rec.Proc
	s.Trace = rec.Trace
	s.ID = rec.ID
	s.Parent = rec.Parent
	s.Start = rec.Start
	s.End = rec.End
	n := len(rec.Attrs)
	if n > flightAttrCap {
		n = flightAttrCap
	}
	s.NAttrs = n
	for i := 0; i < n; i++ {
		s.Attrs[i] = rec.Attrs[i]
	}
	for _, ev := range rec.Events {
		e := f.slot()
		e.Kind = 'E'
		e.Name = ev.Name
		e.Proc = rec.Proc
		e.Trace = rec.Trace
		e.ID = 0
		e.Parent = rec.ID
		e.Start = ev.At
		e.End = ev.At
		e.NAttrs = 0
	}
	f.mu.Unlock()
}

// RecordEvent writes a standalone instantaneous event (a crash marker, a
// chaos fault) into the ring. Allocation-free.
//
//elan:hotpath
func (f *FlightRecorder) RecordEvent(proc, name string, at time.Time) {
	if f == nil {
		return
	}
	f.mu.Lock()
	e := f.slot()
	e.Kind = 'E'
	e.Name = name
	e.Proc = proc
	e.Trace = 0
	e.ID = 0
	e.Parent = 0
	e.Start = at
	e.End = at
	e.NAttrs = 0
	f.mu.Unlock()
}

// Snapshot copies the ring contents out, oldest first. Reading may
// allocate; only recording and dumping are allocation-free.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return oldestFirst(f.buf, f.next, f.total)
}

// oldestFirst copies a ring image whose next write goes to slot next, after
// total writes in all, into a fresh slice, oldest record first.
func oldestFirst(ring []FlightRecord, next int, total uint64) []FlightRecord {
	if total < uint64(len(ring)) {
		return append(make([]FlightRecord, 0, next), ring[:next]...)
	}
	out := make([]FlightRecord, 0, len(ring))
	out = append(out, ring[next:]...)
	return append(out, ring[:next]...)
}

// DumpNow freezes the ring as it stands into the dump image under the
// given reason (a fault description, a crash site); LastDump reads it back.
// Crash and chaos paths call this at the moment of the fault so the black
// box preserved is the one from just before impact. It copies only the
// slots written since the previous dump, at most the whole ring, and never
// allocates.
//
//elan:hotpath
func (f *FlightRecorder) DumpNow(reason string) {
	if f == nil {
		return
	}
	f.mu.Lock()
	n := len(f.buf)
	if fresh := f.total - f.dumpTotal; fresh < uint64(n) {
		n = int(fresh)
	}
	// The n fresh slots end just before next, wrapping once at most.
	from := f.next - n
	if from < 0 {
		copy(f.dump[len(f.buf)+from:], f.buf[len(f.buf)+from:])
		from = 0
	}
	copy(f.dump[from:f.next], f.buf[from:f.next])
	f.dumpNext = f.next
	f.dumpTotal = f.total
	f.dumpReason = reason
	f.mu.Unlock()
}

// LastDump returns the most recent DumpNow capture, oldest record first,
// and its reason; before any dump it returns "" and no records.
func (f *FlightRecorder) LastDump() (string, []FlightRecord) {
	if f == nil {
		return "", nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dumpReason, oldestFirst(f.dump, f.dumpNext, f.dumpTotal)
}

// WriteFlightDump renders records as a readable postmortem log, oldest
// first. Timestamps are printed as offsets from the first record so sim-
// and wall-clock dumps read the same way.
func WriteFlightDump(w io.Writer, reason string, recs []FlightRecord) error {
	if _, err := fmt.Fprintf(w, "flight dump: reason=%q records=%d\n", reason, len(recs)); err != nil {
		return err
	}
	if len(recs) == 0 {
		return nil
	}
	origin := recs[0].Start
	for _, r := range recs {
		switch r.Kind {
		case 'S':
			if _, err := fmt.Fprintf(w, "  S +%-12s dur=%-10s proc=%-10s trace=%d id=%d parent=%d %s",
				r.Start.Sub(origin), r.End.Sub(r.Start), procLabel(r.Proc), r.Trace, r.ID, r.Parent, r.Name); err != nil {
				return err
			}
			for i := 0; i < r.NAttrs; i++ {
				if _, err := fmt.Fprintf(w, " %s=%s", r.Attrs[i].Key, r.Attrs[i].Value); err != nil {
					return err
				}
			}
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		case 'E':
			if _, err := fmt.Fprintf(w, "  E +%-12s proc=%-10s trace=%d span=%d %s\n",
				r.Start.Sub(origin), procLabel(r.Proc), r.Trace, r.Parent, r.Name); err != nil {
				return err
			}
		}
	}
	return nil
}

func procLabel(proc string) string {
	if proc == "" {
		return "main"
	}
	return proc
}
