package telemetry

import (
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
)

// TestFlightRecordZeroAllocs is the contract behind "the black box can run
// in production": recording a finished span (with attributes and events)
// and a standalone marker into a pre-allocated ring performs no
// allocations.
func TestFlightRecordZeroAllocs(t *testing.T) {
	f := NewFlightRecorder(64)
	rec := SpanRecord{
		ID: 7, Parent: 3, Trace: 7, Proc: "agent-1", Name: "worker.rank_step",
		Start: epoch, End: epoch.Add(time.Millisecond),
		Attrs:  []Attr{{Key: "rank", Value: "1"}, {Key: "iter", Value: "9"}},
		Events: []EventRecord{{Name: "retry", At: epoch}},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(rec)
		f.RecordEvent("chaos", "net.partition", epoch)
	})
	if allocs != 0 {
		t.Fatalf("flight record path allocates %.1f times per run, want 0", allocs)
	}
}

func TestFlightRecorderWraparound(t *testing.T) {
	f := NewFlightRecorder(4)
	for i := 0; i < 10; i++ {
		f.RecordEvent("p", "ev"+string(rune('0'+i)), epoch.Add(time.Duration(i)*time.Second))
	}
	if f.Total() != 10 {
		t.Fatalf("Total = %d, want 10", f.Total())
	}
	snap := f.Snapshot()
	if len(snap) != 4 {
		t.Fatalf("Snapshot len = %d, want capacity 4", len(snap))
	}
	// Oldest first: the surviving records are ev6..ev9.
	for i, r := range snap {
		want := "ev" + string(rune('0'+6+i))
		if r.Name != want {
			t.Errorf("snap[%d] = %q, want %q", i, r.Name, want)
		}
	}
}

func TestFlightRecorderPartialRing(t *testing.T) {
	f := NewFlightRecorder(8)
	f.RecordEvent("p", "a", epoch)
	f.RecordEvent("p", "b", epoch.Add(time.Second))
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].Name != "a" || snap[1].Name != "b" {
		t.Fatalf("partial snapshot = %+v, want [a b]", snap)
	}
}

// TestFlightRecorderSpanEvents: a span's events become their own 'E' slots
// pointing back at the span.
func TestFlightRecorderSpanEvents(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(SpanRecord{
		ID: 5, Trace: 5, Name: "core.scale_out",
		Start: epoch, End: epoch.Add(time.Second),
		Events: []EventRecord{{Name: "commit-point", At: epoch.Add(400 * time.Millisecond)}},
	})
	snap := f.Snapshot()
	if len(snap) != 2 {
		t.Fatalf("slots = %d, want span + event", len(snap))
	}
	if snap[0].Kind != 'S' || snap[1].Kind != 'E' {
		t.Fatalf("kinds = %c %c, want S E", snap[0].Kind, snap[1].Kind)
	}
	if snap[1].Parent != 5 || snap[1].Name != "commit-point" {
		t.Errorf("event slot = %+v, want parent=5 name=commit-point", snap[1])
	}
}

// TestFlightRecorderAttrTruncation: spans with more than flightAttrCap
// attributes are truncated, not dropped.
func TestFlightRecorderAttrTruncation(t *testing.T) {
	f := NewFlightRecorder(4)
	attrs := make([]Attr, flightAttrCap+3)
	for i := range attrs {
		attrs[i] = Attr{Key: "k", Value: "v"}
	}
	f.Record(SpanRecord{ID: 1, Trace: 1, Name: "big", Start: epoch, End: epoch, Attrs: attrs})
	snap := f.Snapshot()
	if len(snap) != 1 || snap[0].NAttrs != flightAttrCap {
		t.Fatalf("NAttrs = %d, want %d", snap[0].NAttrs, flightAttrCap)
	}
}

// TestFlightRecorderDump: LastDump reads back the ring as it stood at the
// last DumpNow, frozen against later records, and a later dump replaces it.
func TestFlightRecorderDump(t *testing.T) {
	f := NewFlightRecorder(8)
	if reason, dump := f.LastDump(); reason != "" || len(dump) != 0 {
		t.Fatalf("LastDump before any dump = %q %+v, want none", reason, dump)
	}
	f.RecordEvent("fleet-lead", "worker-crash", epoch)
	f.DumpNow("worker-crash agent-1")
	// The dump is frozen: later records do not change it.
	f.RecordEvent("fleet-lead", "later", epoch.Add(time.Second))
	reason, last := f.LastDump()
	if reason != "worker-crash agent-1" || len(last) != 1 || last[0].Name != "worker-crash" {
		t.Fatalf("LastDump = %q %+v, want frozen single-record dump", reason, last)
	}
	f.DumpNow("am-crash")
	reason, last = f.LastDump()
	if reason != "am-crash" || len(last) != 2 || last[0].Name != "worker-crash" || last[1].Name != "later" {
		t.Fatalf("LastDump = %q %+v, want both records", reason, last)
	}
}

// TestFlightDumpZeroAllocs: dumping, like recording, performs no
// allocations, so a crash path can freeze the black box at no cost beyond
// copying the slots written since the previous dump.
func TestFlightDumpZeroAllocs(t *testing.T) {
	f := NewFlightRecorder(64)
	rec := SpanRecord{
		ID: 7, Parent: 3, Trace: 7, Proc: "agent-1", Name: "worker.rank_step",
		Start: epoch, End: epoch.Add(time.Millisecond),
		Attrs:  []Attr{{Key: "rank", Value: "1"}},
		Events: []EventRecord{{Name: "retry", At: epoch}},
	}
	allocs := testing.AllocsPerRun(1000, func() {
		f.Record(rec)
		f.DumpNow("worker-crash agent-1")
	})
	if allocs != 0 {
		t.Fatalf("record and dump allocate %.1f times per run, want 0", allocs)
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var f *FlightRecorder
	f.Record(SpanRecord{ID: 1})
	f.RecordEvent("p", "e", epoch)
	f.DumpNow("x")
	if f.Capacity() != 0 || f.Total() != 0 {
		t.Fatal("nil recorder reports non-zero size")
	}
	if f.Snapshot() != nil {
		t.Fatal("nil recorder returned records")
	}
	if reason, dump := f.LastDump(); reason != "" || dump != nil {
		t.Fatal("nil recorder returned a dump")
	}
}

func TestWriteFlightDumpFormat(t *testing.T) {
	f := NewFlightRecorder(8)
	f.Record(SpanRecord{
		ID: 2, Trace: 2, Proc: "agent-0", Name: "worker.rank_step",
		Start: epoch, End: epoch.Add(3 * time.Millisecond),
		Attrs: []Attr{{Key: "rank", Value: "0"}},
	})
	f.RecordEvent("chaos", "net.partition", epoch.Add(5*time.Millisecond))
	var sb strings.Builder
	if err := WriteFlightDump(&sb, "test", f.Snapshot()); err != nil {
		t.Fatalf("WriteFlightDump: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		`flight dump: reason="test" records=2`,
		"worker.rank_step rank=0",
		"proc=chaos",
		"net.partition",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dump missing %q:\n%s", want, out)
		}
	}
}

// TestRecorderFeedsFlight: a Recorder with an attached flight recorder
// copies every finished span into the ring, even spans dropped by the
// recorder's own cap.
func TestRecorderFeedsFlight(t *testing.T) {
	rec := NewRecorder(clock.NewSim(epoch), 1)
	f := NewFlightRecorder(8)
	rec.SetFlightRecorder(f)
	rec.StartSpan("kept").End()
	rec.StartSpan("capped").End() // dropped by the recorder, kept by the ring
	if rec.Len() != 1 || rec.Dropped() != 1 {
		t.Fatalf("recorder Len=%d Dropped=%d, want 1 and 1", rec.Len(), rec.Dropped())
	}
	snap := f.Snapshot()
	if len(snap) != 2 || snap[0].Name != "kept" || snap[1].Name != "capped" {
		t.Fatalf("flight snapshot = %+v, want both spans", snap)
	}
}
