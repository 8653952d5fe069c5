package telemetry

import (
	"fmt"
	"testing"
)

// nopStepPath replays exactly the instrumentation sequence of the worker
// step hot path (worker.Fleet.Step plus the collective allreduce it
// triggers) against a recorder (nil: tracing off) and instruments.
func nopStepPath(tr *Recorder, steps *Counter, secs *Histogram) {
	span := tr.StartSpan("worker.step")
	span.AnnotateInt("iter", 17)
	child := span.Child("collective.allreduce")
	child.Annotate("link", "inproc")
	child.AnnotateInt("elements", 1024)
	child.End()
	span.Event("noop")
	secs.Observe(0.001)
	steps.Inc()
	span.End()
}

// TestNopPathZeroAllocs is the contract behind "telemetry off is free":
// the full instrumented step sequence performs no allocations when the
// recorder is nil and the instruments came from a nil Registry.
func TestNopPathZeroAllocs(t *testing.T) {
	var tr *Recorder
	var reg *Registry
	steps := reg.Counter("worker_steps_total")
	secs := reg.Histogram("worker_step_seconds")
	allocs := testing.AllocsPerRun(1000, func() {
		nopStepPath(tr, steps, secs)
	})
	if allocs != 0 {
		t.Fatalf("nop step path allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkNopStepPath quantifies the disabled-path cost; run with -benchmem
// to see the 0 B/op, 0 allocs/op line.
func BenchmarkNopStepPath(b *testing.B) {
	var tr *Recorder
	var reg *Registry
	steps := reg.Counter("worker_steps_total")
	secs := reg.Histogram("worker_step_seconds")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nopStepPath(tr, steps, secs)
	}
}

// BenchmarkFlightDumpNow prices a crash dump of a default-sized ring with
// 0, 64 and a whole ring of records written since the previous dump; run
// with -benchmem to see 0 allocs/op. Between dumps the ring's cursor is
// moved as that many records would move it, so the timer sees only the
// dump's copy of the slots they would have written.
func BenchmarkFlightDumpNow(b *testing.B) {
	for _, fresh := range []int{0, 64, DefaultFlightCapacity} {
		b.Run(fmt.Sprintf("records=%d", fresh), func(b *testing.B) {
			f := NewFlightRecorder(DefaultFlightCapacity)
			for i := 0; i < f.Capacity(); i++ {
				f.RecordEvent("fleet-lead", "step", epoch)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				f.next = (f.next + fresh) % len(f.buf)
				f.total += uint64(fresh)
				f.DumpNow("worker-crash agent-1")
			}
		})
	}
}

// BenchmarkLiveStepPath is the comparison point: the same sequence against
// a live recorder and registry, bare and with the flight ring attached,
// which every span End then also feeds.
func BenchmarkLiveStepPath(b *testing.B) {
	for _, flight := range []bool{false, true} {
		b.Run(fmt.Sprintf("flight=%v", flight), func(b *testing.B) {
			rec := NewRecorder(nil, 1) // cap at one span: steady-state drops, no growth
			if flight {
				rec.SetFlightRecorder(NewFlightRecorder(0))
			}
			reg := NewRegistry()
			steps := reg.Counter("worker_steps_total")
			secs := reg.Histogram("worker_step_seconds")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				nopStepPath(rec, steps, secs)
			}
		})
	}
}
