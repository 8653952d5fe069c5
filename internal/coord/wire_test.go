package coord

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/elan-sys/elan/internal/clock"
	"github.com/elan-sys/elan/internal/store"
	"github.com/elan-sys/elan/internal/telemetry"
	"github.com/elan-sys/elan/internal/transport"
)

// serveFunc serves am on one wire, with tr attached, and returns a client
// calling it. Everything it opens is closed at test cleanup.
type serveFunc func(t *testing.T, am *AM, tr telemetry.Tracer) *Client

var wires = []struct {
	name  string
	serve serveFunc
}{
	{"bus", func(t *testing.T, am *AM, tr telemetry.Tracer) *Client {
		t.Helper()
		bus := transport.NewBus(transport.BusConfig{Tracer: tr})
		t.Cleanup(bus.Close)
		svc, err := NewServiceWith(context.Background(), am, bus, "am", tr)
		if err != nil {
			t.Fatalf("NewServiceWith: %v", err)
		}
		t.Cleanup(svc.Close)
		cl, err := NewClient(bus, "caller", "am")
		if err != nil {
			t.Fatalf("NewClient: %v", err)
		}
		return cl
	}},
	{"tcp", func(t *testing.T, am *AM, tr telemetry.Tracer) *Client {
		t.Helper()
		svc, err := NewTCPService(am, "127.0.0.1:0", tr)
		if err != nil {
			t.Fatalf("NewTCPService: %v", err)
		}
		t.Cleanup(svc.Close)
		cl := NewTCPClient(svc.Addr)
		t.Cleanup(cl.Close)
		return cl
	}},
}

// TestOneServiceBothWires runs one script through the one Service and the
// one Client on each wire. The caller must see the same replies, the same
// sentinel identities and the same AM-side span tree on both.
func TestOneServiceBothWires(t *testing.T) {
	transcripts := make([][]string, len(wires))
	for i, w := range wires {
		t.Run(w.name, func(t *testing.T) { transcripts[i] = runWireScript(t, w.serve) })
	}
	if !reflect.DeepEqual(transcripts[0], transcripts[1]) {
		t.Fatalf("the wires disagree:\nbus: %q\ntcp: %q", transcripts[0], transcripts[1])
	}
}

// runWireScript drives fresh AMs through serve and returns what the caller
// saw, one line per step.
func runWireScript(t *testing.T, serve serveFunc) []string {
	var out []string
	note := func(format string, args ...any) { out = append(out, fmt.Sprintf(format, args...)) }

	// A whole adjustment: request, two reports, a state read, coordination.
	cl := serve(t, newWireAM(t, "script", store.New()), nil)
	note("request: %v", cl.RequestAdjustment(ScaleOut, []string{"w5", "w6"}, nil))
	note("report w5: %v", cl.ReportReady("w5"))
	note("report w6: %v", cl.ReportReady("w6"))
	st, err := cl.AMState()
	note("state: %+v %v", st, err)
	adj, ok, err := cl.Coordinate()
	note("coordinate: %+v %v %v", adj, ok, err)
	if st.State != Ready || err != nil || !ok || !reflect.DeepEqual(adj.Add, []string{"w5", "w6"}) {
		t.Errorf("script: state %+v, coordinate %+v %v %v", st, adj, ok, err)
	}

	// The sentinels callers dispatch on.
	sentinels := []struct {
		name     string
		sentinel error
		run      func(t *testing.T) error
	}{
		{"busy", ErrBusy, func(t *testing.T) error {
			cl := serve(t, newWireAM(t, "busy", store.New()), nil)
			if err := cl.RequestAdjustment(ScaleOut, []string{"w5"}, nil); err != nil {
				t.Fatalf("first request: %v", err)
			}
			return cl.RequestAdjustment(ScaleOut, []string{"w6"}, nil)
		}},
		{"unknown worker", ErrUnknownWorker, func(t *testing.T) error {
			cl := serve(t, newWireAM(t, "stranger", store.New()), nil)
			if err := cl.RequestAdjustment(ScaleOut, []string{"w5"}, nil); err != nil {
				t.Fatalf("request: %v", err)
			}
			return cl.ReportReady("w9")
		}},
		{"fenced", ErrFenced, func(t *testing.T) error {
			st := store.New()
			cl := serve(t, newWireAM(t, "fenced", st), nil)
			if _, err := Recover("fenced", st); err != nil {
				t.Fatalf("Recover: %v", err)
			}
			return cl.RequestAdjustment(ScaleIn, nil, []string{"w1"})
		}},
	}
	for _, c := range sentinels {
		err := c.run(t)
		if !errors.Is(err, c.sentinel) {
			t.Errorf("%s: errors.Is(%v, %v) = false", c.name, err, c.sentinel)
		}
		note("%s: %v", c.name, err)
	}

	// A traced coordination: the AM side records the same tree under the
	// caller's trace.
	rec := telemetry.NewRecorder(clock.Wall{}, 64)
	cl = serve(t, newWireAM(t, "traced", store.New()), rec)
	root := rec.StartSpan("caller")
	_, _, err = cl.CoordinateCtx(telemetry.ContextWithSpan(context.Background(), root), 0)
	root.End()
	if err != nil {
		t.Fatalf("CoordinateCtx: %v", err)
	}
	tree := handleTree(rec.Snapshot(), root.Context().Trace)
	if tree != "transport.handle[coord.coordinate]" {
		t.Errorf("AM-side span tree = %q", tree)
	}
	note("trace: %s", tree)
	return out
}

func newWireAM(t *testing.T, job string, st *store.Store) *AM {
	t.Helper()
	am, err := NewAM(job, st)
	if err != nil {
		t.Fatalf("NewAM: %v", err)
	}
	return am
}

// handleTree renders, as name[children...], the spans under the first
// transport.handle span in trace: the part of a call the AM's side records.
func handleTree(spans []telemetry.SpanRecord, trace uint64) string {
	kids := make(map[uint64][]telemetry.SpanRecord)
	var handle *telemetry.SpanRecord
	for i, s := range spans {
		kids[s.Parent] = append(kids[s.Parent], s)
		if handle == nil && s.Trace == trace && s.Name == "transport.handle" {
			handle = &spans[i]
		}
	}
	if handle == nil {
		return "no transport.handle span in the caller's trace"
	}
	var render func(s telemetry.SpanRecord) string
	render = func(s telemetry.SpanRecord) string {
		if len(kids[s.ID]) == 0 {
			return s.Name
		}
		names := make([]string, 0, len(kids[s.ID]))
		for _, k := range kids[s.ID] {
			names = append(names, render(k))
		}
		return s.Name + "[" + strings.Join(names, " ") + "]"
	}
	return render(*handle)
}

// TestServiceCloseLeavesSuccessor: closing a dead service again after a
// successor took its bus name must leave the successor serving.
func TestServiceCloseLeavesSuccessor(t *testing.T) {
	bus := transport.NewBus(transport.DefaultBusConfig())
	defer bus.Close()
	st := store.New()
	dead, err := NewService(newWireAM(t, "job", st), bus, "am")
	if err != nil {
		t.Fatal(err)
	}
	dead.Close()
	am2, err := Recover("job", st)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewService(am2, bus, "am"); err != nil {
		t.Fatal(err)
	}
	dead.Close()
	cl, err := NewClient(bus, "w1", "am")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.AMState(); err != nil {
		t.Fatalf("successor after the dead service's second Close: %v", err)
	}
}

// TestServiceCloseReleasesLifecycleHook: a closed service must not stay
// reachable from its lifecycle context — Fleet.CrashAM closes one per AM
// crash while the fleet's context lives on.
func TestServiceCloseReleasesLifecycleHook(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bus := transport.NewBus(transport.DefaultBusConfig())
	defer bus.Close()
	collected := closedServiceAM(t, ctx, bus)
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		select {
		case <-collected:
			return
		default:
		}
		if time.Now().After(deadline) {
			t.Fatal("a closed service's AM is still reachable while its context lives")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// closedServiceAM serves an AM under ctx, closes the service, and returns a
// channel closed once the garbage collector frees the AM.
func closedServiceAM(t *testing.T, ctx context.Context, bus *transport.Bus) <-chan struct{} {
	collected := make(chan struct{})
	am := newWireAM(t, "job", store.New())
	runtime.SetFinalizer(am, func(*AM) { close(collected) })
	svc, err := NewServiceCtx(ctx, am, bus, "am")
	if err != nil {
		t.Fatal(err)
	}
	svc.Close()
	return collected
}
