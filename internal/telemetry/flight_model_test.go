package telemetry

import (
	"fmt"
	"testing"
	"time"
)

// Flight ops, one byte each: the byte's value mod 3 picks the op, and a
// span's byte also carries its event and attribute counts.
const (
	opEvent = 1 // RecordEvent
	opDump  = 2 // DumpNow
)

// opSpan encodes a Record of a span with the given numbers of events (0–3)
// and attributes (0–6).
func opSpan(events, attrs int) byte { return byte(3 * (events + 4*attrs)) }

// flightSeeds start with the ring capacity less one, then the ops.
var flightSeeds = [][]byte{
	// A dump before the ring fills.
	{7, opEvent, opSpan(1, 2), opDump, opEvent},
	// Exactly cap records between dumps.
	{3, opEvent, opEvent, opDump, opEvent, opEvent, opEvent, opEvent, opDump, opEvent},
	// More than cap records between dumps, with the ring's cursor mid-way.
	{2, opEvent, opDump, opEvent, opSpan(2, 5), opEvent, opEvent, opDump, opEvent, opEvent},
	// Two dumps in a row with nothing between them.
	{4, opEvent, opSpan(0, 1), opDump, opDump, opEvent, opDump, opDump},
	// A span whose events wrap the ring.
	{3, opEvent, opEvent, opEvent, opDump, opSpan(3, 6), opDump, opEvent},
}

// FuzzFlightDump checks the incremental dump against its oracle, Snapshot
// taken at each DumpNow: after any later records, LastDump still equals it
// field for field, reason included. Plain `go test` runs the seed corpus.
func FuzzFlightDump(f *testing.F) {
	for _, seed := range flightSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		if len(data) > 256 {
			data = data[:256]
		}
		runFlightOps(t, int(data[0])%9+1, data[1:])
	})
}

// runFlightOps interprets ops against a ring of the given capacity. Every
// record carries its sequence number in its name and times, so a slot that
// the dump missed or copied from the wrong place shows as a mismatch.
func runFlightOps(t *testing.T, capacity int, ops []byte) {
	fr := NewFlightRecorder(capacity)
	var wantReason string
	var want []FlightRecord
	for step, op := range ops {
		at := epoch.Add(time.Duration(step) * time.Millisecond)
		switch op % 3 {
		case 0:
			n := int(op/3) % 4
			rec := SpanRecord{
				ID: uint64(step + 1), Parent: uint64(step), Trace: 1, Proc: fmt.Sprint("p", step%3),
				Name: fmt.Sprint("span-", step), Start: at, End: at.Add(time.Microsecond),
				Attrs:  make([]Attr, int(op/12)%7),
				Events: make([]EventRecord, n),
			}
			for i := range rec.Attrs {
				rec.Attrs[i] = Attr{Key: fmt.Sprint("k", i), Value: fmt.Sprint(step)}
			}
			for i := range rec.Events {
				rec.Events[i] = EventRecord{Name: fmt.Sprint("ev-", step, "-", i), At: at.Add(time.Duration(i))}
			}
			fr.Record(rec)
		case 1:
			fr.RecordEvent(fmt.Sprint("p", step%3), fmt.Sprint("event-", step), at)
		case 2:
			wantReason, want = fmt.Sprint("dump-", step), fr.Snapshot()
			fr.DumpNow(wantReason)
		}
		if wantReason == "" {
			continue // no dump yet
		}
		reason, got := fr.LastDump()
		if reason != wantReason {
			t.Fatalf("step %d: LastDump reason %q, want %q", step, reason, wantReason)
		}
		if len(got) != len(want) {
			t.Fatalf("step %d: LastDump has %d records, want %d", step, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("step %d: LastDump record %d = %+v, want %+v", step, i, got[i], want[i])
			}
		}
	}
}
