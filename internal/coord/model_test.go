package coord

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// FuzzAMOverLossyBus is an executable model of the delivery contract: one AM
// served on a sim-clock bus, whose fault hook drops and delays delivery legs
// and restarts the AM (Recover, then a new Service under the same name),
// between calls and inside its reply legs. ops drives a scheduler client, a
// lead client and one client per joiner, as a fleet drives them: the
// scheduler requests scale-outs of fresh or reused names and scale-ins of
// members (rejoined ones too), both after the last adjustment the lead
// received; joiners report; the lead coordinates. faults gives the fate of
// each delivery leg in turn, and delivery is clean once it runs out.
//
// Callers resend on transport errors and on ErrFenced (a restarted AM
// answers the resend), so every call ends in the AM's verdict. The oracle:
//   - the lead receives adjustments 1..k in order, each once;
//   - each equals a request the scheduler saw succeed, after the adjustment
//     before it, and every request that succeeded is received;
//   - no request the AM refused is ever applied;
//   - ErrBusy comes only while a request the scheduler saw succeed is not
//     yet received, and once the model drains, the AM is Idle at the
//     lead's seq: it never stays Busy with nothing open.
func FuzzAMOverLossyBus(f *testing.F) {
	const (
		outFresh = iota
		outReused
		scaleIn
		report
		coordinate
		restartOrRejoin
	)
	op := func(o, param int) byte { return byte(o + 6*param) }
	// Fault bytes: see lossyAM.hook.
	const (
		pass    = 3
		drop    = 0
		restart = 2        // inside an AM reply leg; the leg is delivered
		cut     = 2 + 4    // inside an AM reply leg; the leg is dropped
		late    = 1 + 4*40 // 40 ms, twice the ack timeout: a resend and a late duplicate
		slow    = 1 + 4*15 // 15 ms, within the ack timeout
		stale   = 1 + 4*30 // 30 ms: overtaken by a resend, delivered before the next one
	)
	// Op params.
	const (
		oneName = 0 // outFresh, outReused
		twoName = 1
		anyName = 0 // scaleIn
		reused  = 1 // scaleIn: a rejoined member when there is one
		allJoin = 1 // report: every joiner of the open request
		firstJ  = 2 // report: the first joiner only
		stray   = 3 // report: a worker no request names
		amDown  = 0 // restartOrRejoin
		rejoin  = 1
	)
	seeds := []struct{ ops, faults []byte }{
		// A clean scale-out and scale-in.
		{[]byte{op(outFresh, twoName), op(report, allJoin), op(coordinate, 0), op(scaleIn, anyName), op(coordinate, 0)}, nil},
		// The reply to the first worker.coord is lost and the AM restarts
		// inside that reply leg.
		{[]byte{op(scaleIn, anyName), op(coordinate, 0), op(coordinate, 0)}, []byte{pass, pass, pass, cut}},
		// Every reply of a scale-out cycle restarts the AM and is lost once.
		{[]byte{op(outFresh, oneName), op(report, allJoin), op(coordinate, 0), op(coordinate, 0)},
			[]byte{pass, cut, pass, pass, pass, cut, pass, pass, pass, cut}},
		// Late duplicates of every call, with drops and restarts between.
		{[]byte{op(outFresh, twoName), op(outFresh, oneName), op(report, firstJ), op(coordinate, 0), op(report, allJoin),
			op(coordinate, 0), op(restartOrRejoin, amDown), op(scaleIn, anyName), op(coordinate, 0), op(report, stray)},
			[]byte{late, late, drop, late, restart, late, slow, drop, cut, late, late, pass, late, cut, drop, late}},
		// Scale in, rejoin the same name, scale it in again, then scale a
		// left name back out, with lost replies and restarts.
		{[]byte{op(scaleIn, anyName), op(coordinate, 0), op(restartOrRejoin, rejoin), op(scaleIn, reused), op(coordinate, 0),
			op(outReused, oneName), op(report, allJoin), op(coordinate, 0), op(coordinate, 0)},
			[]byte{pass, cut, pass, cut, late, pass, pass, pass, cut, pass, late, drop, pass, cut, late, late, restart}},
		// A request while another is open, and one handed out but not yet
		// received by the lead when the next request is made.
		{[]byte{op(scaleIn, anyName), op(scaleIn, 1), op(coordinate, 0), op(scaleIn, anyName), op(coordinate, 0)},
			[]byte{pass, pass, pass, pass, pass, cut, pass, pass, pass, pass}},
		// A stale duplicate of an earlier worker.coord hands a request out
		// while the scheduler's reply is lost; its resend finds the request
		// handed out.
		{[]byte{op(coordinate, 0), op(scaleIn, anyName), op(coordinate, 0)},
			[]byte{stale, pass, pass, pass, drop, pass, pass, pass}},
	}
	for _, s := range seeds {
		f.Add(s.ops, s.faults)
	}
	f.Fuzz(func(t *testing.T, ops, faults []byte) {
		if len(ops) > 48 {
			ops = ops[:48]
		}
		if len(faults) > 192 {
			faults = faults[:192]
		}
		runLossyModel(t, ops, faults)
	})
}

// lossyAM is the AM side of the model: the current incarnation and its
// service, and the fault hook that may replace them.
type lossyAM struct {
	t   *testing.T
	bus *transport.Bus
	st  *store.Store

	mu     sync.Mutex
	am     *AM
	svc    *Service
	faults []byte
}

const lossyJob, lossyName = "model", "am"

// hook gives the next fault byte's fate to a leg: 0 drops it, 1 delays it
// by the byte's upper six bits in milliseconds, 2 restarts the AM inside
// one of its reply legs (dropping the leg when bit 2 is set), and 3 lets it
// through.
func (w *lossyAM) hook(m transport.Message) transport.Fate {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.faults) == 0 {
		return transport.Fate{}
	}
	b := w.faults[0]
	w.faults = w.faults[1:]
	switch b % 4 {
	case 0:
		return transport.Fate{Drop: true}
	case 1:
		return transport.Fate{Delay: time.Duration(b>>2) * time.Millisecond}
	case 2:
		if m.From == lossyName {
			w.restartLocked()
			return transport.Fate{Drop: b&4 != 0}
		}
	}
	return transport.Fate{}
}

// restartLocked crashes the AM's service and recovers a new incarnation
// under the same name. A handler of the old incarnation may persist in
// between; Recover then loses the takeover race and reads again.
func (w *lossyAM) restartLocked() {
	w.svc.Close()
	var err error
	for try := 0; try < 100; try++ {
		var am *AM
		if am, err = Recover(lossyJob, w.st); err == nil {
			w.am = am
			break
		}
	}
	if err != nil {
		w.t.Errorf("recover: %v", err)
		return
	}
	if w.svc, err = NewService(w.am, w.bus, lossyName); err != nil {
		w.t.Errorf("re-serve: %v", err)
	}
}

// transient reports whether a call ended without the AM's verdict: lost on
// the wire, or answered by an incarnation that was being replaced.
func transient(err error) bool {
	return errors.Is(err, transport.ErrTimeout) || errors.Is(err, transport.ErrNoEndpoint) ||
		errors.Is(err, transport.ErrClosed) || errors.Is(err, ErrFenced)
}

// modelReq is a scheduler request as the model keys it: the adjustment it
// follows and what it asks for.
type modelReq struct {
	after  int64
	kind   Kind
	add    string
	remove string
}

func reqOf(after int64, kind Kind, add, remove []string) modelReq {
	return modelReq{after, kind, fmt.Sprint(add), fmt.Sprint(remove)}
}

func runLossyModel(t *testing.T, ops, faults []byte) {
	sim := clock.NewSim(time.Unix(0, 0))
	stop := sim.AutoAdvance(0)
	defer stop()
	bus := transport.NewBus(transport.BusConfig{Clock: sim})
	defer bus.Close()
	w := &lossyAM{t: t, bus: bus, st: store.New(), faults: faults}
	am, err := NewAM(lossyJob, w.st)
	if err != nil {
		t.Fatal(err)
	}
	if w.svc, err = NewService(am, bus, lossyName); err != nil {
		t.Fatal(err)
	}
	w.am = am
	bus.SetFaultHook(w.hook)
	ctx := context.Background()
	client := func(name string) *Client {
		cl, err := NewClient(bus, name, lossyName)
		if err != nil {
			t.Fatal(err)
		}
		return cl
	}
	sched, lead := client("sched"), client("lead")
	joiners := make(map[string]*Client)

	var (
		leadSeq   int64
		members   = []string{"m0", "m1", "m2"}
		left      []string
		rejoined  = make(map[string]bool)
		fresh     int
		succeeded = make(map[modelReq][]string) // request -> its joiners
		refused   = make(map[modelReq]error)
		received  = make(map[int64]modelReq)
	)
	// untilVerdict repeats call while it fails without the AM's verdict.
	untilVerdict := func(what string, call func() error) error {
		for try := 0; try < 1000; try++ {
			if err := call(); !transient(err) {
				return err
			}
		}
		t.Fatalf("%s: no verdict after 1000 tries", what)
		return nil
	}
	// open is the request the scheduler saw succeed after leadSeq, if any:
	// open in the AM, or handed out and not yet received.
	open := func() (modelReq, []string, bool) {
		for r, add := range succeeded {
			if r.after == leadSeq {
				return r, add, true
			}
		}
		return modelReq{}, nil, false
	}
	request := func(kind Kind, add, remove []string) {
		r := reqOf(leadSeq, kind, add, remove)
		err := untilVerdict("request", func() error {
			return sched.RequestAdjustmentTraced(ctx, leadSeq, kind, add, remove, telemetry.TraceContext{})
		})
		if err == nil {
			succeeded[r] = add
			return
		}
		refused[r] = err
		if errors.Is(err, ErrBusy) {
			if o, _, ok := open(); !ok || o == r {
				t.Fatalf("request %+v refused busy with %v open (%v): %v", r, o, ok, err)
			}
		}
	}
	reportReady := func(name string) error {
		cl := joiners[name]
		if cl == nil {
			cl = client("j/" + name)
			joiners[name] = cl
		}
		return untilVerdict("report "+name, func() error { return cl.ReportReadyCtx(ctx, name) })
	}
	coord := func() bool {
		adj, ok, err := lead.CoordinateCtx(ctx, leadSeq)
		if transient(err) {
			return true
		}
		if err != nil {
			t.Fatalf("Coordinate(%d): %v", leadSeq, err)
		}
		if !ok {
			return false
		}
		r := reqOf(leadSeq, adj.Kind, adj.Add, adj.Remove)
		if adj.Seq != leadSeq+1 {
			t.Fatalf("lead at %d received adjustment %d", leadSeq, adj.Seq)
		}
		if _, ok := succeeded[r]; !ok {
			t.Fatalf("adjustment %d %+v is no request the scheduler saw succeed", adj.Seq, r)
		}
		if err, ok := refused[r]; ok {
			t.Fatalf("adjustment %d %+v was refused: %v", adj.Seq, r, err)
		}
		received[adj.Seq] = r
		leadSeq = adj.Seq
		members = slices.DeleteFunc(members, func(m string) bool { return slices.Contains(adj.Remove, m) })
		left = slices.DeleteFunc(left, func(m string) bool { return slices.Contains(adj.Add, m) })
		members = append(members, adj.Add...)
		left = append(left, adj.Remove...)
		return true
	}

	for _, b := range ops {
		param := int(b / 6)
		switch b % 6 {
		case 0, 1: // scale out, by fresh or reused names
			var add []string
			for i := 0; i <= param%2; i++ {
				if b%6 == 1 && i < len(left) {
					add = append(add, left[(param/2+i)%len(left)])
				} else {
					add = append(add, fmt.Sprintf("f%d", fresh))
					fresh++
				}
			}
			request(ScaleOut, slices.Compact(add), nil)
		case 2: // scale in one member, a rejoined one when asked and present
			var remove []string
			if len(members) > 0 {
				remove = []string{members[param%len(members)]}
			}
			for _, m := range members {
				if param%2 == 1 && rejoined[m] {
					remove = []string{m}
				}
			}
			request(ScaleIn, nil, remove)
		case 3: // joiners of the open request report; or a stray does
			if param%4 == 3 {
				if err := reportReady("stray"); !errors.Is(err, ErrUnknownWorker) {
					t.Fatalf("stray report = %v, want ErrUnknownWorker", err)
				}
				continue
			}
			if _, add, ok := open(); ok {
				for i, name := range add {
					if param%4 == 1 || i == 0 {
						if err := reportReady(name); err != nil && !errors.Is(err, ErrUnknownWorker) {
							t.Fatalf("report %s: %v", name, err)
						}
					}
				}
			}
		case 4:
			coord()
		case 5: // restart the AM between calls, or rejoin a left worker
			if param%2 == 0 {
				w.mu.Lock()
				w.restartLocked()
				w.mu.Unlock()
			} else if len(left) > 0 {
				name := left[param%len(left)]
				left = slices.DeleteFunc(left, func(m string) bool { return m == name })
				members = append(members, name)
				rejoined[name] = true
			}
		}
	}

	// Drain on a clean wire: the open request's joiners report, and the
	// lead coordinates until nothing is left.
	w.mu.Lock()
	w.faults = nil
	w.mu.Unlock()
	for round := 0; round < 3; round++ {
		if _, add, ok := open(); ok {
			for _, name := range add {
				if err := reportReady(name); err != nil && !errors.Is(err, ErrUnknownWorker) {
					t.Fatalf("drain report %s: %v", name, err)
				}
			}
		}
		for coord() {
		}
	}
	for r := range succeeded {
		if received[r.after+1] != r {
			t.Fatalf("request %+v succeeded, but adjustment %d is %+v", r, r.after+1, received[r.after+1])
		}
	}
	w.mu.Lock()
	state, seq := w.am.State(), w.am.Seq()
	w.mu.Unlock()
	if state != Idle || seq != leadSeq {
		t.Fatalf("drained AM is %v at %d, lead at %d", state, seq, leadSeq)
	}
}
