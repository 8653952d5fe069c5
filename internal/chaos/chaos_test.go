package chaos

import (
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/coord"
	"github.com/elan-sys/elan/internal/telemetry"
)

// guardGoroutines fails the test if goroutines outlive the harness teardown.
func guardGoroutines(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		for {
			runtime.GC()
			if runtime.NumGoroutine() <= before {
				return
			}
			if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				n := runtime.Stack(buf, true)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, runtime.NumGoroutine(), buf[:n])
			}
			time.Sleep(10 * time.Millisecond)
		}
	})
}

func TestRandomScheduleDeterministic(t *testing.T) {
	a := RandomSchedule(42, 100, 4)
	b := RandomSchedule(42, 100, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different schedules")
	}
	c := RandomSchedule(43, 100, 4)
	if reflect.DeepEqual(a.Faults, c.Faults) {
		t.Fatal("different seeds produced identical schedules")
	}
	if len(a.Faults) < 100 {
		t.Fatalf("schedule has %d faults, want >= 100", len(a.Faults))
	}
	// Faults are ordered and the end of the schedule is past the last fault.
	for i := 1; i < len(a.Faults); i++ {
		if a.Faults[i].Iter < a.Faults[i-1].Iter {
			t.Fatal("schedule not sorted by iteration")
		}
	}
	last := a.Faults[len(a.Faults)-1]
	if a.Iters() <= last.Iter+last.Dur {
		t.Fatalf("Iters() = %d does not cover last fault at %d+%d", a.Iters(), last.Iter, last.Dur)
	}
}

func TestFormatEventsStable(t *testing.T) {
	events := []Event{
		{Iter: 3, Detail: "worker.crash target=agent-1"},
		{Iter: 12, Detail: "am.crash"},
	}
	want := "iter=0003 worker.crash target=agent-1\niter=0012 am.crash\n"
	if got := FormatEvents(events); got != want {
		t.Fatalf("FormatEvents = %q, want %q", got, want)
	}
}

// TestFlightRecorderCapturesFaults: with a flight recorder wired through
// the harness, every injected fault freezes a dump of the recent span
// history, and the fleet's tracer feeds the ring continuously.
func TestFlightRecorderCapturesFaults(t *testing.T) {
	guardGoroutines(t)
	flight := telemetry.NewFlightRecorder(512)
	h, err := New(Config{
		Workers:    2,
		TotalBatch: 24,
		Schedule: Schedule{Seed: 7, Faults: []Fault{
			{Iter: 2, Kind: WorkerCrash, Target: "agent-1"},
			{Iter: 4, Kind: WorkerRestart, Target: "agent-1"},
		}},
		Tracer: telemetry.NewRecorder(h0clock(), 0),
		Flight: flight,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	if err := h.Run(6); err != nil {
		t.Fatalf("Run: %v", err)
	}
	reason, dump := flight.LastDump()
	if reason != "worker.restart" {
		t.Fatalf("last dump reason = %q, want worker.restart", reason)
	}
	if len(dump) == 0 {
		t.Fatal("fault dump is empty")
	}
	var chaosMarks, spanRecs int
	for _, r := range dump {
		if r.Kind == 'E' && r.Proc == "chaos" {
			chaosMarks++
		}
		if r.Kind == 'S' {
			spanRecs++
		}
	}
	if chaosMarks < 2 {
		t.Errorf("chaos markers in dump = %d, want both faults", chaosMarks)
	}
	if spanRecs == 0 {
		t.Error("no spans reached the flight ring from the fleet tracer")
	}
	var sb strings.Builder
	if err := telemetry.WriteFlightDump(&sb, reason, dump); err != nil {
		t.Fatalf("WriteFlightDump: %v", err)
	}
	if !strings.Contains(sb.String(), "worker.crash") {
		t.Errorf("rendered dump missing crash marker:\n%s", sb.String())
	}
}

// h0clock hands the harness tracer the same epoch the harness itself uses
// (time.Unix(0, 0)); the harness owns the sim driver, the recorder only
// needs a matching time source for construction.
func h0clock() clock.Clock { return clock.NewSim(time.Unix(0, 0)) }

// midAdjustmentSchedule crashes and restarts both a worker and the AM while
// a scale-out adjustment is in flight — the acceptance scenario.
func midAdjustmentSchedule() Schedule {
	return Schedule{
		Seed: 7,
		Faults: []Fault{
			{Iter: 1, Kind: AMCrash},
			{Iter: 2, Kind: WorkerCrash, Target: "agent-1"},
			{Iter: 4, Kind: AMRecover},
			{Iter: 6, Kind: WorkerRestart, Target: "agent-1"},
		},
	}
}

// runMidAdjustment plays the acceptance scenario once and returns the
// formatted event log plus the final report.
func runMidAdjustment(t *testing.T) (string, Report, []*coord.AM) {
	t.Helper()
	h, err := New(Config{Workers: 2, TotalBatch: 24, Schedule: midAdjustmentSchedule()})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	// Iteration 0 runs clean, then the scale-out goes in flight before the
	// AM crashes at iteration 1.
	if err := h.Run(1); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := h.Fleet.RequestScaleOut(1); err != nil {
		t.Fatalf("RequestScaleOut: %v", err)
	}
	if err := h.Run(midAdjustmentSchedule().Iters()); err != nil {
		t.Fatalf("Run schedule: %v", err)
	}
	// The job must complete: the restarted worker is back and the pending
	// adjustment is admitted once its ready report lands on the recovered
	// AM. Extra iterations give the asynchronous report room to land.
	for i := 0; i < 300 && h.Fleet.NumWorkers() != 3; i++ {
		if err := h.Run(1); err != nil {
			t.Fatalf("Run while waiting for admission: %v", err)
		}
	}
	return FormatEvents(h.Events()), h.Report(), h.OldAMs()
}

func TestMidAdjustmentCrashRecovery(t *testing.T) {
	guardGoroutines(t)
	log, rep, oldAMs := runMidAdjustment(t)

	if len(rep.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", rep.FaultErrors)
	}
	if rep.FinalWorkers != 3 {
		t.Fatalf("FinalWorkers = %d, want 3 (2 initial - crash + restart + admitted scale-out)", rep.FinalWorkers)
	}
	if !rep.Consistent {
		t.Fatal("replicas inconsistent after recovery")
	}
	if rep.AMDown {
		t.Fatal("AM still down after recovery")
	}
	if math.IsNaN(rep.FinalLoss) || math.IsInf(rep.FinalLoss, 0) {
		t.Fatalf("FinalLoss = %v", rep.FinalLoss)
	}
	// The dead AM incarnation is fenced: any write it attempts fails at the
	// store's CAS. The old AM crashed mid-adjustment, so its in-memory state
	// is Pending or Ready depending on whether the new worker's report beat
	// the crash; drive whichever write that state permits and require the
	// fence to reject it.
	if len(oldAMs) != 1 {
		t.Fatalf("crashed AM incarnations = %d, want 1", len(oldAMs))
	}
	if _, _, err := oldAMs[0].Coordinate(oldAMs[0].Seq()); !errors.Is(err, coord.ErrFenced) {
		if err != nil {
			t.Fatalf("old AM Coordinate = %v, want ErrFenced or nil", err)
		}
		// Not Ready yet: a report write must hit the fence instead.
		if err := oldAMs[0].ReportReady("agent-2"); !errors.Is(err, coord.ErrFenced) {
			t.Fatalf("old AM write = %v, want ErrFenced", err)
		}
	}
	// The event log is exactly the schedule, rendered.
	want := "iter=0001 am.crash\n" +
		"iter=0002 worker.crash target=agent-1\n" +
		"iter=0004 am.recover\n" +
		"iter=0006 worker.restart target=agent-1\n"
	if log != want {
		t.Fatalf("event log:\n%s\nwant:\n%s", log, want)
	}
}

func TestMidAdjustmentDeterministicEventLog(t *testing.T) {
	guardGoroutines(t)
	log1, _, _ := runMidAdjustment(t)
	log2, _, _ := runMidAdjustment(t)
	if log1 != log2 {
		t.Fatalf("event logs differ across runs with the same schedule:\n%s\nvs:\n%s", log1, log2)
	}
}

func TestTimedWindowsOpenAndClose(t *testing.T) {
	guardGoroutines(t)
	sched := Schedule{
		Seed: 9,
		Faults: []Fault{
			{Iter: 1, Kind: Partition, A: []string{"fleet-lead"}, B: []string{"fleet-am"}, Dur: 2},
			{Iter: 5, Kind: DropBurst, Rate: 0.4, Dur: 1},
			{Iter: 8, Kind: SlowLink, Target: "fleet-am", Delay: 2 * time.Millisecond, Dur: 2},
		},
	}
	h, err := New(Config{Workers: 2, TotalBatch: 24, Schedule: sched})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	defer h.Close()
	if err := h.Run(sched.Iters()); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "iter=0001 net.partition a=fleet-lead b=fleet-am dur=2\n" +
		"iter=0003 net.heal\n" +
		"iter=0005 net.drop rate=0.400 dur=1\n" +
		"iter=0006 net.drop.end\n" +
		"iter=0008 net.slow target=fleet-am delay=2ms dur=2\n" +
		"iter=0010 net.slow.end target=fleet-am\n"
	if got := FormatEvents(h.Events()); got != want {
		t.Fatalf("event log:\n%s\nwant:\n%s", got, want)
	}
	rep := h.Report()
	if len(rep.FaultErrors) != 0 {
		t.Fatalf("fault errors: %v", rep.FaultErrors)
	}
	if !rep.Consistent {
		t.Fatal("replicas inconsistent")
	}
	// Training kept going through the partition (coordination skipped, not
	// wedged): every scheduled iteration completed.
	if rep.Iterations != sched.Iters() {
		t.Fatalf("Iterations = %d, want %d", rep.Iterations, sched.Iters())
	}
}
