package coord

import (
	"errors"
	"testing"

	"github.com/elan-sys/elan/internal/store"
)

func newAM(t *testing.T) (*AM, *store.Store) {
	t.Helper()
	st := store.New()
	am, err := NewAM("job1", st)
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	return am, st
}

func TestNewAMValidation(t *testing.T) {
	st := store.New()
	if _, err := NewAM("", st); err == nil {
		t.Fatal("empty job ID accepted")
	}
	if _, err := NewAM("j", nil); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewAM("j", st); err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	if _, err := NewAM("j", st); err == nil {
		t.Fatal("duplicate AM accepted")
	}
}

func TestScaleOutLifecycle(t *testing.T) {
	am, _ := newAM(t)
	if am.State() != Idle {
		t.Fatalf("initial state = %v", am.State())
	}
	// Coordinate with nothing pending: keep training.
	if _, ok, err := am.Coordinate(0); ok || err != nil {
		t.Fatalf("idle Coordinate = %v, %v", ok, err)
	}
	if err := am.RequestAdjustment(0, ScaleOut, []string{"w5", "w6"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if am.State() != Pending {
		t.Fatalf("state = %v, want Pending", am.State())
	}
	// Async property: coordination while workers are starting returns
	// no-adjustment, training proceeds.
	if _, ok, err := am.Coordinate(0); ok || err != nil {
		t.Fatalf("pending Coordinate = %v, %v", ok, err)
	}
	if err := am.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady w5: %v", err)
	}
	if am.State() != Pending {
		t.Fatal("became ready with one of two reports")
	}
	if got := am.PendingWorkers(); len(got) != 1 || got[0] != "w6" {
		t.Fatalf("PendingWorkers = %v", got)
	}
	if err := am.ReportReady("w6"); err != nil {
		t.Fatalf("ReportReady w6: %v", err)
	}
	if am.State() != Ready {
		t.Fatalf("state = %v, want Ready", am.State())
	}
	adj, ok, err := am.Coordinate(0)
	if err != nil || !ok {
		t.Fatalf("Coordinate = %v, %v", ok, err)
	}
	if adj.Kind != ScaleOut || len(adj.Add) != 2 || adj.Seq != 1 {
		t.Fatalf("adjustment = %+v", adj)
	}
	if am.State() != Idle {
		t.Fatalf("state after adjustment = %v", am.State())
	}
	// The next coordinate, after adjustment 1, returns nothing.
	if _, ok, _ := am.Coordinate(1); ok {
		t.Fatal("adjustment delivered twice")
	}
}

func TestScaleInImmediatelyReady(t *testing.T) {
	am, _ := newAM(t)
	if err := am.RequestAdjustment(0, ScaleIn, nil, []string{"w3", "w4"}); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if am.State() != Ready {
		t.Fatalf("scale-in state = %v, want Ready (no new workers to wait for)", am.State())
	}
	adj, ok, err := am.Coordinate(0)
	if err != nil || !ok || adj.Kind != ScaleIn || len(adj.Remove) != 2 {
		t.Fatalf("Coordinate = %+v, %v, %v", adj, ok, err)
	}
}

func TestMigration(t *testing.T) {
	am, _ := newAM(t)
	if err := am.RequestAdjustment(0, Migrate, []string{"w9"}, []string{"w1"}); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := am.ReportReady("w9"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	adj, ok, err := am.Coordinate(0)
	if err != nil || !ok {
		t.Fatalf("Coordinate: %v %v", ok, err)
	}
	if adj.Kind != Migrate || adj.Add[0] != "w9" || adj.Remove[0] != "w1" {
		t.Fatalf("adjustment = %+v", adj)
	}
}

func TestRequestValidation(t *testing.T) {
	am, _ := newAM(t)
	if err := am.RequestAdjustment(0, Kind(99), nil, nil); err == nil {
		t.Fatal("invalid kind accepted")
	}
	if err := am.RequestAdjustment(0, ScaleOut, nil, nil); err == nil {
		t.Fatal("scale-out without workers accepted")
	}
	if err := am.RequestAdjustment(0, ScaleIn, nil, nil); err == nil {
		t.Fatal("scale-in without workers accepted")
	}
}

func TestBusyRejectsSecondRequest(t *testing.T) {
	am, _ := newAM(t)
	if err := am.RequestAdjustment(0, ScaleOut, []string{"w5"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := am.RequestAdjustment(0, ScaleOut, []string{"w6"}, nil); !errors.Is(err, ErrBusy) {
		t.Fatalf("second request = %v, want ErrBusy", err)
	}
}

func TestReportValidation(t *testing.T) {
	am, _ := newAM(t)
	if err := am.ReportReady("w5"); err == nil {
		t.Fatal("report in Idle accepted")
	}
	if err := am.RequestAdjustment(0, ScaleOut, []string{"w5"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := am.ReportReady("stranger"); !errors.Is(err, ErrUnknownWorker) {
		t.Fatalf("unknown worker report = %v", err)
	}
	// Duplicate reports (message resends) are idempotent.
	if err := am.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	if am.State() != Ready {
		t.Fatal("not ready after last report")
	}
}

func TestRecoverAfterFailure(t *testing.T) {
	am, st := newAM(t)
	if err := am.RequestAdjustment(0, ScaleOut, []string{"w5", "w6"}, nil); err != nil {
		t.Fatalf("RequestAdjustment: %v", err)
	}
	if err := am.ReportReady("w5"); err != nil {
		t.Fatalf("ReportReady: %v", err)
	}
	// AM crashes; a new incarnation recovers from the store.
	am2, err := Recover("job1", st)
	if err != nil {
		t.Fatalf("Recover: %v", err)
	}
	if am2.State() != Pending {
		t.Fatalf("recovered state = %v, want Pending", am2.State())
	}
	if got := am2.PendingWorkers(); len(got) != 1 || got[0] != "w6" {
		t.Fatalf("recovered pending = %v", got)
	}
	// The recovery preserved w5's report.
	if err := am2.ReportReady("w6"); err != nil {
		t.Fatalf("ReportReady on recovered AM: %v", err)
	}
	adj, ok, err := am2.Coordinate(0)
	if err != nil || !ok || len(adj.Add) != 2 {
		t.Fatalf("Coordinate on recovered AM = %+v, %v, %v", adj, ok, err)
	}
}

func TestOldIncarnationFenced(t *testing.T) {
	am, st := newAM(t)
	// A new incarnation takes over.
	if _, err := Recover("job1", st); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	// The old incarnation's next mutation is fenced.
	err := am.RequestAdjustment(0, ScaleOut, []string{"w5"}, nil)
	if !errors.Is(err, ErrFenced) {
		t.Fatalf("stale AM mutation = %v, want ErrFenced", err)
	}
	// And it stayed inert (Idle) so it cannot hand out adjustments.
	if am.State() != Idle {
		t.Fatalf("fenced AM state = %v", am.State())
	}
}

func TestRecoverMissing(t *testing.T) {
	if _, err := Recover("ghost", store.New()); err == nil {
		t.Fatal("recovering a non-existent AM succeeded")
	}
	if _, err := Recover("ghost", nil); err == nil {
		t.Fatal("nil store accepted")
	}
}

func TestSeqIncrements(t *testing.T) {
	am, _ := newAM(t)
	for i := int64(1); i <= 3; i++ {
		if err := am.RequestAdjustment(i-1, ScaleIn, nil, []string{"w"}); err != nil {
			t.Fatalf("RequestAdjustment %d: %v", i, err)
		}
		adj, ok, err := am.Coordinate(i - 1)
		if err != nil || !ok {
			t.Fatalf("Coordinate %d: %v %v", i, ok, err)
		}
		if adj.Seq != i {
			t.Fatalf("Seq = %d, want %d", adj.Seq, i)
		}
	}
	if am.Seq() != 3 {
		t.Fatalf("Seq() = %d", am.Seq())
	}
}

// TestIdempotentCalls checks the three idempotence rules of the AM's
// state-changing calls, keyed by the adjustment sequence number: repeats
// before and after the hand-out, and across Recover, answer as the first
// call did and change nothing.
func TestIdempotentCalls(t *testing.T) {
	// A step is one call: "request" (after, kind, add, remove), "report"
	// (worker), "coord" (after; want is the Seq returned, 0 for none) or
	// "recover". err is the sentinel the call must return.
	type step struct {
		op          string
		after       int64
		kind        Kind
		add, remove []string
		worker      string
		want        int64
		err         error
	}
	in := func(after int64, names ...string) step {
		return step{op: "request", after: after, kind: ScaleIn, remove: names}
	}
	out := func(after int64, names ...string) step {
		return step{op: "request", after: after, kind: ScaleOut, add: names}
	}
	busy := func(s step) step { s.err = ErrBusy; return s }
	report := func(w string, err error) step { return step{op: "report", worker: w, err: err} }
	coord := func(after, want int64) step { return step{op: "coord", after: after, want: want} }
	restart := step{op: "recover"}
	cases := []struct {
		name  string
		steps []step
		state State
		seq   int64
	}{
		{"coordinate repeated after the hand-out",
			[]step{in(0, "w4"), coord(0, 1), coord(0, 1), coord(1, 0), coord(0, 1)}, Idle, 1},
		{"coordinate repeated across recover",
			[]step{in(0, "w4"), coord(0, 1), restart, coord(0, 1), coord(1, 0)}, Idle, 1},
		{"coordinate from the future or the past",
			[]step{in(0, "w4"), coord(0, 1), in(1, "w3"), coord(1, 2),
				{op: "coord", after: 0, err: errAny}, {op: "coord", after: 3, err: errAny}}, Idle, 2},
		{"request repeated while open",
			[]step{out(0, "w5"), out(0, "w5"), busy(out(0, "w6")), busy(in(0, "w5")), coord(0, 0)}, Pending, 0},
		{"request repeated after the hand-out",
			[]step{in(0, "w4"), coord(0, 1), in(0, "w4"), coord(1, 0), busy(in(0, "w3")), in(1, "w3"), in(0, "w4"), coord(1, 2)}, Idle, 2},
		{"request repeated across recover",
			[]step{out(0, "w5"), restart, out(0, "w5"), report("w5", nil), coord(0, 1), restart, out(0, "w5"), coord(1, 0)}, Idle, 1},
		{"request behind the hand-out before last",
			[]step{in(0, "w4"), coord(0, 1), in(1, "w3"), coord(1, 2), busy(in(0, "w4")), busy(in(1, "w4"))}, Idle, 2},
		{"report repeated while open",
			[]step{out(0, "w5", "w6"), report("w5", nil), report("w5", nil), report("w6", nil), report("w6", nil), coord(0, 1)}, Idle, 1},
		{"report repeated after the hand-out",
			[]step{out(0, "w5"), report("w5", nil), coord(0, 1), report("w5", ErrUnknownWorker), restart, report("w5", ErrUnknownWorker)}, Idle, 1},
		{"report repeated across recover",
			[]step{out(0, "w5", "w6"), report("w5", nil), restart, report("w5", nil), report("w6", nil), coord(0, 1)}, Idle, 1},
		{"report from a worker not named",
			[]step{report("w5", ErrUnknownWorker), out(0, "w5"), report("w9", ErrUnknownWorker), coord(0, 0)}, Pending, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			am, st := newAM(t)
			for i, s := range c.steps {
				var err error
				var got int64
				switch s.op {
				case "request":
					err = am.RequestAdjustment(s.after, s.kind, s.add, s.remove)
				case "report":
					err = am.ReportReady(s.worker)
				case "coord":
					var adj Adjustment
					var ok bool
					adj, ok, err = am.Coordinate(s.after)
					if ok {
						got = adj.Seq
					}
				case "recover":
					am, err = Recover("job1", st)
				}
				if s.err == errAny && err != nil {
					continue
				}
				if !errors.Is(err, s.err) || got != s.want {
					t.Fatalf("step %d %+v: got seq %d, err %v; want seq %d, err %v", i, s, got, err, s.want, s.err)
				}
			}
			if am.State() != c.state || am.Seq() != c.seq {
				t.Fatalf("AM ends %v at %d, want %v at %d", am.State(), am.Seq(), c.state, c.seq)
			}
		})
	}
}

// errAny marks a step that must fail, with any error.
var errAny = errors.New("any error")
